(** BGP table memory accounting, for reproducing Figure 2 ("BGP table
    memory usage as # of prefixes and peers increases").

    Two views are provided:

    - {!measured_words}/{!measured_bytes} walk our actual OCaml RIB
      with [Obj.reachable_words] — the honest cost of {e this}
      implementation;
    - {!model_bytes} is an analytic model calibrated to Quagga's
      data structures (struct [bgp_node] per prefix, struct
      [bgp_info] per path, partially shared [attr]s), which is what
      the paper measured.

    Both are linear in prefixes with a per-peer slope, which is the
    figure's shape. *)

open Peering_bgp

val measured_words : Rib.t -> int
(** Heap words reachable from the RIB. *)

val measured_bytes : Rib.t -> int
(** [measured_words * Sys.word_size / 8]. *)

type model_params = {
  base_bytes : int;  (** process baseline, default 6 MiB *)
  node_bytes : int;  (** per distinct prefix, default 96 *)
  path_bytes : int;  (** per (prefix, peer) path, default 136 *)
  attr_bytes : int;  (** per path share of attribute storage, default 72 *)
}

val model_bytes :
  ?params:model_params -> peers:int -> prefixes_per_peer:int -> unit -> int
(** Modelled resident bytes for a router holding full feeds of
    [prefixes_per_peer] routes from each of [peers] peers (all peers
    advertising the same prefix set, as in the Fig. 2 experiment). *)

val fill_rib : peers:int -> prefixes_per_peer:int -> Rib.t
(** Build a RIB in the Fig. 2 configuration: [peers] synthetic peers
    each announcing the same [prefixes_per_peer] prefixes with
    distinct next hops. *)
