(** A route collector in the RouteViews/RIPE-RIS mould: a passive
    summary of the control-plane events heard towards each prefix.

    PEERING "automatically collect[s] regular control and data plane
    measurements towards PEERING prefixes" (§3); the testbed records
    every export its servers make, and every monitoring round, into
    one of these.

    Bound: the collector keeps one slot per distinct prefix (an event
    count and the newest path, about a dozen words plus the path) and
    one counter. It keeps no per-event log, so recording an event for
    a prefix it already holds adds zero words, however many exports
    or monitoring rounds follow. *)

open Peering_net

type kind = Announce | Withdraw

type t

val create : unit -> t

val record :
  t -> pairs:int -> prefix:Prefix.t -> path:Asn.t list -> kind -> unit
(** [record t ~pairs ~prefix ~path kind] notes one event towards
    [prefix] heard from [pairs] peers at once (one export to a set of
    peers is one call). [path] is ignored for a [Withdraw].
    [pairs <= 0] records nothing. *)

val churn : t -> Prefix.t -> int
(** Number of (peer, event) pairs (announcements + withdrawals) for
    the prefix — the dampening ablation's measurement. *)

val last_path : t -> Prefix.t -> Asn.t list option
(** Path of the most recent announcement not followed by a
    withdrawal, if any. *)

val n_entries : t -> int
(** (peer, event) pairs recorded across all prefixes. *)

val clear : t -> unit
