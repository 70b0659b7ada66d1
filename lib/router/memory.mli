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

val model_bytes : peers:int -> prefixes_per_peer:int -> int
(** Modelled resident bytes for a router holding full feeds of
    [prefixes_per_peer] routes from each of [peers] peers (all peers
    advertising the same prefix set, as in the Fig. 2 experiment): a
    6 MiB process baseline, 96 bytes per distinct prefix, and 136 + 72
    bytes per (prefix, peer) path and its share of attribute
    storage. *)

val fill_rib : peers:int -> prefixes_per_peer:int -> Rib.t
(** Build a RIB in the Fig. 2 configuration: [peers] synthetic peers
    each announcing the same [prefixes_per_peer] prefixes with
    distinct next hops. *)
