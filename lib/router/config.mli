(** A Quagga-flavoured configuration language.

    PEERING ships clients a bgpd configuration; this module parses the
    dialect we support and instantiates routers from it. Comments,
    separators, tokens and line numbers follow {!Peering_net.Lines}.
    Supported statements, one per line; an indented line belongs to
    the [router bgp] or [route-map] block above it, and a [!] line or
    an unindented one closes that block:

    {v
router bgp <asn>
 bgp router-id <ip>
 network <prefix>
 neighbor <ip> remote-as <asn>
 neighbor <ip> route-map <name> in|out
 neighbor <ip> timers <keepalive> <holdtime>
 neighbor <ip> timers connect <seconds>
ip prefix-list <name> seq <n> permit|deny <prefix> [ge <n>] [le <n>]
route-map <name> permit|deny <seq>
 match ip address prefix-list <name>
 match community <asn>:<value>
 match as-path-contains <asn>
 set local-preference <n>
 set metric <n>
 set community <asn>:<value> [additive]
 set as-path prepend <asn> <count>
 set next-hop <ip>
    v}

    The parsed representation keeps source line numbers so static
    analysis ({!Peering_check}) can report locations. *)

open Peering_net
open Peering_bgp

type neighbor_config = {
  addr : Ipv4.t;
  remote_as : Asn.t;
  route_map_in : string option;
  route_map_out : string option;
  keepalive : int option;  (** [timers <k> <h>]: keepalive interval, s *)
  holdtime : int option;  (** [timers <k> <h>]: hold time, s *)
  connect_retry_s : int option;  (** [timers connect <n>]: retry base, s *)
  timers_line : int option;
      (** line of the last [timers] statement, for diagnostics *)
  nbr_line : int;  (** line of the [remote-as] declaration *)
}

type bgp_config = {
  asn : Asn.t;
  router_id : Ipv4.t option;
  networks : Prefix.t list;
  network_lines : (Prefix.t * int) list;
      (** [networks] paired with their declaration lines *)
  neighbors : neighbor_config list;
}

type prefix_rule = {
  pl_seq : int;
  pl_permit : bool;
  pl_prefix : Prefix.t;
  pl_ge : int option;
  pl_le : int option;
  pl_line : int;
}

type map_match =
  | M_prefix_list of string
  | M_community of Community.t
  | M_as_path_contains of Asn.t

type map_set =
  | S_local_pref of int
  | S_metric of int
  | S_community of Community.t * bool
      (** [S_community (c, additive)]: non-additive replaces the
          community list, additive appends *)
  | S_prepend of Asn.t * int
  | S_next_hop of Ipv4.t

type map_entry = {
  rm_seq : int;
  rm_permit : bool;
  rm_line : int;
  mutable rm_matches : map_match list;
  mutable rm_sets : map_set list;
}

type t

val parse : string -> (t, Lines.error) result
(** Parse a configuration text. *)

val bgp : t -> bgp_config option

val route_map_names : t -> string list

val route_map : t -> string -> map_entry list option
(** Entries in source order. *)

val prefix_list : t -> string -> prefix_rule list option
(** Rules in source order. *)

val route_maps : t -> (string * map_entry list) list
(** All route-maps, sorted by name. *)

val prefix_lists : t -> (string * prefix_rule list) list
(** All prefix-lists, sorted by name. *)

val compile_route_map : t -> string -> (Policy.t, string) result
(** Compile the named route-map (resolving prefix-list references)
    into a {!Peering_bgp.Policy.t}. An undefined route-map or a
    reference to an undefined prefix-list is an error. *)

val instantiate :
  Peering_sim.Engine.t -> t -> (Router.t, string) result
(** Build a router from the [router bgp] block: creates the router and
    originates its networks. Neighbor sessions are wired separately
    with {!Router.connect}; the per-neighbor route-maps named in the
    config are applied to the router after connection with
    {!apply_neighbor_policies}. *)

val apply_neighbor_policies : t -> Router.t -> (unit, string) result
(** For each configured neighbor with route-maps, set the compiled
    import/export policies on the (already connected) router. *)
