(* The reference SPF: Dijkstra over unit-cost links with a priority
   queue ordered by (distance, node, first hop), the implementation
   Igp's breadth-first search replaced. Popping the smallest entry
   first gives each node the name-smallest first hop among its
   shortest paths, the tie-break Igp must keep. *)

module Smap = Map.Make (String)
module Sset = Set.Make (String)

type t = { mutable adj : Sset.t Smap.t }

let create () = { adj = Smap.empty }

let add_node t n =
  if not (Smap.mem n t.adj) then t.adj <- Smap.add n Sset.empty t.adj

let add_link t a b =
  add_node t a;
  add_node t b;
  let link x y = t.adj <- Smap.add x (Sset.add y (Smap.find x t.adj)) t.adj in
  link a b;
  link b a

let spf t root =
  let result : (string, int * string option) Hashtbl.t = Hashtbl.create 32 in
  if Smap.mem root t.adj then begin
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
        Sset.iter
          (fun nbr ->
            if not (Hashtbl.mem result nbr) then
              let first_hop = match hop with None -> nbr | Some h -> h in
              pq := Pq.add (dist + 1, nbr, Some first_hop) !pq)
          (Smap.find node t.adj)
      end
    done
  end;
  result

let distances t root =
  Hashtbl.fold (fun n (d, _) acc -> (n, d) :: acc) (spf t root) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let next_hop t ~src ~dst =
  if src = dst then None
  else Option.bind (Hashtbl.find_opt (spf t src) dst) snd

let path t ~src ~dst =
  let rec go current acc =
    if current = dst then Some (List.rev (dst :: acc))
    else
      match next_hop t ~src:current ~dst with
      | Some h -> go h (current :: acc)
      | None -> None
  in
  go src []
