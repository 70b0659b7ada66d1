(** Static analysis over compiled {!Peering_bgp.Policy} values.

    Codes emitted here:
    - [POLICY-UNSAT] (warning): an entry's condition set is
      unsatisfiable (e.g. [All [c; Not c]], disjoint prefix ranges) so
      the entry can never fire
    - [POLICY-DEAD] (warning): an entry is shadowed by an earlier
      catch-all (or identical) entry
    - [POLICY-LEAK] (error): a permit-all export policy on a session
      towards a provider or peer — a Gao-Rexford valley that would
      leak provider/peer-learned routes *)

open Peering_net
open Peering_bgp
open Peering_topo

type af = V4 | V6
(** Address family of the routes a policy is vetted against. The
    family bounds the prefix lengths a ge/le window can match: 32 for
    IPv4, 128 for the MP-BGP IPv6 routes of {!Peering_bgp.Mp}. *)

val max_prefix_len : af -> int
(** 32 for {!V4}, 128 for {!V6}. *)

type input = {
  pol_name : string option;  (** for messages, e.g. the route-map name *)
  pol_relationship : Relationship.t option;
      (** our relationship to the session's remote AS, if known: the
          remote is our [Customer], [Peer] or [Provider] *)
  pol_af : af;  (** address family the policy applies to *)
  policy : Policy.t;
}

val input :
  ?name:string -> ?relationship:Relationship.t -> ?af:af -> Policy.t -> input
(** [af] defaults to {!V4}. *)

val triple_window : ?af:af -> Prefix.t * int * int -> int * int
(** The inclusive [lo, hi] range of route-prefix lengths a prefix-list
    [(p, ge, le)] triple can match, clamped to the family's maximum;
    empty when [lo > hi]. *)

val exact_in_triple : ?af:af -> Prefix.t -> Prefix.t * int * int -> bool
(** Does the triple match a route carrying exactly this prefix? *)

val cond_unsat : ?af:af -> Policy.cond -> bool
(** Conservative: [true] only if the condition provably matches no
    route. [af] defaults to {!V4}. *)

val cond_taut : ?af:af -> Policy.cond -> bool
(** Conservative: [true] only if the condition provably matches every
    route. [af] defaults to {!V4}. *)

val conds_unsat : ?af:af -> Policy.cond list -> bool
(** The conjunction of the conditions is unsatisfiable. *)

val conds_taut : ?af:af -> Policy.cond list -> bool
(** Every condition in the conjunction is a tautology. *)

val permits_all : ?af:af -> Policy.t -> bool
(** The policy provably permits every route: after dropping
    unsatisfiable entries, the first entry is a tautological
    [Permit]. *)

val unsatisfiable_entries : input -> Diagnostic.t list
val dead_entries : input -> Diagnostic.t list
val export_leaks : input -> Diagnostic.t list
