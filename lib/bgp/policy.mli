(** Route policies (route-maps): ordered permit/deny entries with match
    conditions and set actions.

    These express both the simulated Internet's import/export policies
    and the PEERING safety filters ("outbound filters on prefixes and
    origin AS", paper §3). *)

open Peering_net

type cond =
  | Prefix_in of (Prefix.t * int * int) list
      (** prefix-list: [(p, ge, le)] matches routes whose prefix is
          inside [p] with length in [ge, le] *)
  | Path_contains of Asn.t
  | Has_community of Community.t
  | Not of cond
  | All of cond list
  | Any of cond list

type action =
  | Set_local_pref of int
  | Set_med of int option
  | Add_community of Community.t
  | Clear_communities
  | Prepend of Asn.t * int
  | Set_next_hop of Ipv4.t

type decision = Permit | Deny

type entry = {
  seq : int;
  decision : decision;
  conds : cond list;  (** all must hold (empty list matches anything) *)
  actions : action list;  (** applied on permit *)
}

type t
(** A route-map: entries evaluated in [seq] order; first matching entry
    decides. A route matching no entry is denied (BGP convention). *)

val permit_all : t
(** A single catch-all permit. *)

val of_entries : entry list -> t
(** Entries are sorted by [seq]; duplicate sequence numbers raise
    [Invalid_argument]. *)

val entries : t -> entry list

val apply : t -> Route.t -> Route.t option
(** [apply t r] is [Some r'] if some entry permits [r] ([r'] includes
    that entry's actions), [None] if denied. *)
