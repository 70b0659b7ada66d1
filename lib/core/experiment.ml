open Peering_net

type status =
  | Proposed
  | Approved
  | Active
  | Stopped
  | Rejected of string

let status_to_string = function
  | Proposed -> "proposed"
  | Approved -> "approved"
  | Active -> "active"
  | Stopped -> "stopped"
  | Rejected r -> "rejected: " ^ r

type t = {
  id : string;
  owner : string;
  description : string;
  mutable prefixes : Prefix.t list;
  mutable private_asns : Asn.t list;
  may_poison : bool;
  mutable status : status;
}

let make ~id ~owner ~description ?(may_poison = false) () =
  { id;
    owner;
    description;
    prefixes = [];
    private_asns = [];
    may_poison;
    status = Proposed
  }

let owns_prefix t p = List.exists (fun q -> Prefix.subsumes q p) t.prefixes

let owns_asn t a = List.exists (Asn.equal a) t.private_asns
let is_active t = t.status = Active

let pp ppf t =
  Format.fprintf ppf "experiment %s (%s, %s): prefixes=[%s] asns=[%s]" t.id
    t.owner
    (status_to_string t.status)
    (String.concat " " (List.map Prefix.to_string t.prefixes))
    (String.concat " " (List.map Asn.to_string t.private_asns))
