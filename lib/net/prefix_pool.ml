type t = {
  alloc_len : int;
  supply : Prefix.t list; (* parents, address order *)
  free : Prefix.Set.t;
  used : Prefix.Set.t;
}

let check_supply supply =
  let rec disjoint = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> (not (Prefix.overlaps a b)) && disjoint rest
  in
  disjoint (List.sort Prefix.compare supply)

let blocks_of alloc_len p = Prefix.subprefixes p alloc_len

let create ~alloc_len supply =
  if alloc_len < 0 || alloc_len > 32 then invalid_arg "Prefix_pool.create";
  List.iter
    (fun p ->
      if Prefix.len p > alloc_len then
        invalid_arg "Prefix_pool.create: supply prefix longer than alloc_len")
    supply;
  if not (check_supply supply) then
    invalid_arg "Prefix_pool.create: overlapping supply";
  let free =
    List.fold_left
      (fun acc p ->
        List.fold_left (fun acc b -> Prefix.Set.add b acc) acc
          (blocks_of alloc_len p))
      Prefix.Set.empty supply
  in
  { alloc_len; supply = List.sort Prefix.compare supply; free;
    used = Prefix.Set.empty }

let available t = Prefix.Set.cardinal t.free

let alloc t =
  match Prefix.Set.min_elt_opt t.free with
  | None -> None
  | Some p ->
    Some
      ( p,
        { t with
          free = Prefix.Set.remove p t.free;
          used = Prefix.Set.add p t.used
        } )

let free p t =
  if Prefix.Set.mem p t.used then
    Ok
      { t with
        used = Prefix.Set.remove p t.used;
        free = Prefix.Set.add p t.free
      }
  else Error `Not_allocated

let mem_supply p t = List.exists (fun s -> Prefix.subsumes s p) t.supply

let add_supply p t =
  if Prefix.len p > t.alloc_len then
    invalid_arg "Prefix_pool.add_supply: prefix longer than alloc_len";
  if List.exists (fun s -> Prefix.overlaps s p) t.supply then
    invalid_arg "Prefix_pool.add_supply: overlaps existing supply";
  let free =
    List.fold_left
      (fun acc b -> Prefix.Set.add b acc)
      t.free (blocks_of t.alloc_len p)
  in
  { t with supply = List.sort Prefix.compare (p :: t.supply); free }
