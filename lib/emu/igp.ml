module Smap = Map.Make (String)

type t = { mutable adj : int Smap.t Smap.t }

let create () = { adj = Smap.empty }

let add_node t n =
  if not (Smap.mem n t.adj) then t.adj <- Smap.add n Smap.empty t.adj

let add_link t a b ~weight =
  if weight <= 0 then invalid_arg "Igp.add_link: weight must be positive";
  add_node t a;
  add_node t b;
  let link x y =
    t.adj <- Smap.add x (Smap.add y weight (Smap.find x t.adj)) t.adj
  in
  link a b;
  link b a

(* Dijkstra with deterministic tie-breaking: prefer the
   lexicographically smaller first hop on equal distance. *)
let spf t root =
  let result : (string, int * string option) Hashtbl.t = Hashtbl.create 32 in
  if not (Smap.mem root t.adj) then result
  else begin
    let module Pq = Set.Make (struct
      type t = int * string * string option (* dist, node, first hop *)

      let compare (d1, n1, h1) (d2, n2, h2) =
        match Int.compare d1 d2 with
        | 0 -> (
          match String.compare n1 n2 with
          | 0 -> Option.compare String.compare h1 h2
          | c -> c)
        | c -> c
    end) in
    let pq = ref (Pq.singleton (0, root, None)) in
    while not (Pq.is_empty !pq) do
      let ((dist, node, hop) as elt) = Pq.min_elt !pq in
      pq := Pq.remove elt !pq;
      if not (Hashtbl.mem result node) then begin
        Hashtbl.replace result node (dist, hop);
        Smap.iter
          (fun nbr w ->
            if not (Hashtbl.mem result nbr) then begin
              let first_hop =
                match hop with None -> Some nbr | Some h -> Some h
              in
              pq := Pq.add (dist + w, nbr, first_hop) !pq
            end)
          (Smap.find node t.adj)
      end
    done;
    result
  end

let distances t root =
  let r = spf t root in
  Hashtbl.fold (fun n (d, _) acc -> (n, d) :: acc) r []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let next_hop t ~src ~dst =
  if src = dst then None
  else
    match Hashtbl.find_opt (spf t src) dst with
    | Some (_, hop) -> hop
    | None -> None

let path t ~src ~dst =
  if src = dst then Some [ src ]
  else
    let rec go current acc =
      if current = dst then Some (List.rev (dst :: acc))
      else
        match next_hop t ~src:current ~dst with
        | Some h -> go h (current :: acc)
        | None -> None
    in
    go src []
