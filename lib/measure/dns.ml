open Peering_net

type t = { zones : (string, Ipv4.t list ref) Hashtbl.t }

let create () = { zones = Hashtbl.create 256 }

let canon name = String.lowercase_ascii name

let add_a t name addr =
  let name = canon name in
  match Hashtbl.find_opt t.zones name with
  | Some l -> if not (List.exists (Ipv4.equal addr) !l) then l := !l @ [ addr ]
  | None -> Hashtbl.replace t.zones name (ref [ addr ])

let resolve t name =
  match Hashtbl.find_opt t.zones (canon name) with
  | Some l -> !l
  | None -> []
