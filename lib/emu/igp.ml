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

(* Breadth-first search. Ties break toward the name-smallest first
   hop: neighbors are visited in name order, so each level of the FIFO
   queue is sorted by first hop, and a node is first reached from the
   predecessor whose first hop is smallest. *)
let spf t root =
  let result : (string, int * string option) Hashtbl.t = Hashtbl.create 32 in
  if Smap.mem root t.adj then begin
    Hashtbl.replace result root (0, None);
    let queue = Queue.create () in
    Queue.push root queue;
    while not (Queue.is_empty queue) do
      let node = Queue.pop queue in
      let dist, hop = Hashtbl.find result node in
      Sset.iter
        (fun nbr ->
          if not (Hashtbl.mem result nbr) then begin
            let first_hop = match hop with None -> nbr | Some h -> h in
            Hashtbl.replace result nbr (dist + 1, Some first_hop);
            Queue.push nbr queue
          end)
        (Smap.find node t.adj)
    done
  end;
  result

let distances t root =
  let r = spf t root in
  Hashtbl.fold (fun n (d, _) acc -> (n, d) :: acc) r []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let next_hops t ~src =
  let r = spf t src in
  fun dst -> Option.bind (Hashtbl.find_opt r dst) snd

let path t ~src ~dst =
  if src = dst then Some [ src ]
  else
    let rec go current acc =
      if current = dst then Some (List.rev (dst :: acc))
      else
        match next_hops t ~src:current dst with
        | Some h -> go h (current :: acc)
        | None -> None
    in
    go src []
