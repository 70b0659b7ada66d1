open Peering_net

type kind = Announce | Withdraw

(* One slot per prefix: its (peer, event) pairs and the path of its
   newest event ([None] once withdrawn). *)
type summary = { mutable events : int; mutable last : Asn.t list option }

type t = { prefixes : (Prefix.t, summary) Hashtbl.t; mutable pairs : int }

let create () = { prefixes = Hashtbl.create 64; pairs = 0 }

let record t ~pairs ~prefix ~path kind =
  if pairs > 0 then begin
    let last = match kind with Announce -> Some path | Withdraw -> None in
    (match Hashtbl.find_opt t.prefixes prefix with
    | Some s ->
      s.events <- s.events + pairs;
      s.last <- last
    | None -> Hashtbl.add t.prefixes prefix { events = pairs; last });
    t.pairs <- t.pairs + pairs
  end

let churn t prefix =
  match Hashtbl.find_opt t.prefixes prefix with Some s -> s.events | None -> 0

let last_path t prefix =
  match Hashtbl.find_opt t.prefixes prefix with Some s -> s.last | None -> None

let n_entries t = t.pairs

let clear t =
  Hashtbl.reset t.prefixes;
  t.pairs <- 0
