(** Static analysis passes over {!Peering_router.Config} values (rcc
    style: catch misconfigurations before they reach a router).

    Per-config passes return diagnostics whose [file] field is unset;
    the driver ({!Check.check_configs}) fills it in. The cross-config
    pass ({!sessions}) sets files itself since it spans inputs.

    Codes emitted here:
    - [RTR-NOBGP] (error): no [router bgp] block, cannot instantiate
    - [RTMAP-UNDEF] (error): neighbor references an undefined route-map
    - [RTMAP-UNUSED] (warning): route-map defined but never attached
    - [RTMAP-SHADOW] (warning): route-map entry unreachable
    - [PFXLIST-UNDEF] (error): match references an undefined prefix-list
    - [PFXLIST-UNUSED] (warning): prefix-list defined but never matched
    - [PFXLIST-SHADOW] (warning): prefix-list rule unreachable
    - [PFXLIST-BOUNDS] (error): ge/le bounds that can never match
    - [NET-DUP] (warning): the same network declared twice
    - [NBR-NOPOLICY] (warning): neighbor with no route-map attached
    - [TIMER-DEGEN] (error/warning): hold time below the keepalive
      interval, or a zero connect-retry that busy-loops
    - [SESSION-MISMATCH] (error): paired configs disagree on
      remote-as/addresses *)

open Peering_router

val no_bgp : Config.t -> Diagnostic.t list
val undefined_route_maps : Config.t -> Diagnostic.t list
val unused_route_maps : Config.t -> Diagnostic.t list
val shadowed_map_entries : Config.t -> Diagnostic.t list
val undefined_prefix_lists : Config.t -> Diagnostic.t list
val unused_prefix_lists : Config.t -> Diagnostic.t list
val shadowed_prefix_rules : Config.t -> Diagnostic.t list
val impossible_bounds : Config.t -> Diagnostic.t list
val duplicate_networks : Config.t -> Diagnostic.t list
val neighbors_without_policy : Config.t -> Diagnostic.t list
val degenerate_timers : Config.t -> Diagnostic.t list

val sessions : (string option * Config.t) list -> Diagnostic.t list
(** Cross-config consistency: for every pair of configs whose ASNs
    name each other as neighbors, the session must be mutual and the
    neighbor addresses must agree with the remote router-id. *)
