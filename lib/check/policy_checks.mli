(** Static analysis over compiled {!Peering_bgp.Policy} values.

    Codes emitted here:
    - [POLICY-UNSAT] (warning): an entry's condition set is
      unsatisfiable (e.g. [All [c; Not c]], disjoint prefix ranges) so
      the entry can never fire
    - [POLICY-LEAK] (error): a permit-all export policy on a session
      towards a provider or peer — a Gao-Rexford valley that would
      leak provider/peer-learned routes *)

open Peering_net
open Peering_bgp
open Peering_topo

type input = {
  pol_name : string option;  (** for messages, e.g. the route-map name *)
  pol_relationship : Relationship.t option;
      (** our relationship to the session's remote AS, if known: the
          remote is our [Customer], [Peer] or [Provider] *)
  policy : Policy.t;
}

val input : ?name:string -> ?relationship:Relationship.t -> Policy.t -> input

val exact_in_triple : Prefix.t -> Prefix.t * int * int -> bool
(** Does the prefix-list [(p, ge, le)] triple match a route carrying
    exactly this prefix? Routes carry IPv4 prefixes: a window is
    clamped to /32. *)

val conds_unsat : Policy.cond list -> bool
(** Conservative: [true] only if the conjunction provably matches no
    route. *)

val conds_taut : Policy.cond list -> bool
(** Conservative: [true] only if the conjunction provably matches
    every route. *)

val unsatisfiable_entries : input -> Diagnostic.t list
val export_leaks : input -> Diagnostic.t list
