(** The metrics registry: counters, gauges and histograms.

    Subsystems register a metric once (at module initialisation or
    first use) and then mutate it directly, so the hot path — a session
    counting UPDATEs, the engine counting executed events — is a single
    unboxed store with no hashing, no allocation and no branching.
    Registration is memoised: asking for the same (name, labels) pair
    twice returns the same instrument.

    Names are dot-separated, [subsystem.entity.quantity]
    (e.g. ["bgp.session.updates_rx"]); labels carry instance
    dimensions (site, peer class) when one name covers several
    entities. {!snapshot} returns rows in sorted order so rendered
    output and JSON artifacts are deterministic; metrics whose values
    depend on host wall-clock time are registered [~volatile:true] and
    excluded from snapshots by default, which is what keeps two
    identically-seeded runs byte-identical (see DESIGN.md §7). *)

val reset : unit -> unit
(** Zero every registered metric in place (registrations and the
    instruments callers hold remain valid). Use between measurement
    runs. *)

(** {1 Instruments} *)

module Counter : sig
  type t

  val inc : t -> unit
  (** Add one. O(1), allocation-free. *)

  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  (** Record the current level; the high-water mark updates itself. *)

  val value : t -> float

  val hwm : t -> float
  (** Highest value since creation or the last {!reset}. *)
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Record one sample. A histogram retains its first [sample_cap]
      samples since creation or the last {!reset}, the one retention
      rule for samples in this repository; past the cap the summary
      fields keep accumulating and the sample counts as {!dropped}. *)

  val count : t -> int
  val sum : t -> float

  val samples : t -> float list
  (** Retained samples in observation order (at most the cap given at
      registration). Percentiles are computed by the consumer — by
      convention with [Peering_measure.Stats] — not here, so the
      registry stays dependency-free. *)

  val dropped : t -> int
  (** Samples not retained because the cap was reached. *)
end

(** {1 Registration} *)

val counter :
  ?labels:(string * string) list ->
  ?volatile:bool ->
  help:string ->
  string ->
  Counter.t
(** [counter ~help name] finds or creates the counter [name]. Raises [Invalid_argument] if the
    name is already registered as a different instrument kind, or if
    [labels] repeats a key (a silent duplicate would make {!row_name}
    ambiguous and snapshots unstable). *)

val gauge :
  ?labels:(string * string) list ->
  ?volatile:bool ->
  help:string ->
  string ->
  Gauge.t

val histogram :
  ?labels:(string * string) list ->
  ?volatile:bool ->
  ?sample_cap:int ->
  help:string ->
  string ->
  Histogram.t
(** [sample_cap] (default 4096) bounds retained samples; see
    {!Histogram.samples}. *)

(** {1 Label-set families}

    A family is one metric name split across many label sets —
    per-site counters like ["core.server.routes_learned"{site=…}] —
    behind a label-set → instrument cache. {!Family.get} resolves a
    label set to its instrument (registering on first sight, memoised
    thereafter); call sites resolve once per entity and then hold the
    instrument, so the increment hot path stays the same O(1)
    allocation-free store as an unlabeled metric. *)

module Family : sig
  type 'a t
  (** A named metric family whose members differ only in labels;
      ['a] is the instrument type. *)

  val counter : ?volatile:bool -> help:string -> string -> Counter.t t
  (** Declare a counter family. No instrument is registered until
      {!get} sees a label set, so a family with no members leaves no
      row in snapshots. *)

  val gauge : ?volatile:bool -> help:string -> string -> Gauge.t t
  (** Gauge variant of {!counter}. *)

  val histogram :
    ?volatile:bool -> ?sample_cap:int -> help:string -> string -> Histogram.t t
  (** Histogram variant of {!counter}; [sample_cap] as in
      {!histogram}. *)

  val get : 'a t -> (string * string) list -> 'a
  (** The member for this label set: the same (name, labels) pair
      always yields the physically same instrument, whichever family
      value or direct registration call asked first. Raises
      [Invalid_argument] on duplicate label keys. *)
end

(** {1 Reading} *)

type value =
  | Counter_v of int
  | Gauge_v of { value : float; hwm : float }
  | Histogram_v of {
      count : int;
      sum : float;
      samples : float list;
      dropped : int;
    }

type row = {
  name : string;
  labels : (string * string) list;
  help : string;
  volatile : bool;
  value : value;
}
(** One registered metric as read by {!snapshot}. *)

val snapshot : ?include_volatile:bool -> unit -> row list
(** All registered metrics, sorted by (name, labels). Volatile rows
    (host-time dependent) are excluded unless [include_volatile] is
    true, so the default snapshot of a seeded run is deterministic. *)

val counter_value : ?labels:(string * string) list -> string -> int
(** The current value of a registered counter; 0 if never registered
    (a scenario that exercised nothing is indistinguishable from an
    unregistered metric, which is what reporting code wants). *)

val histogram_samples : string -> float list * int
(** The retained samples of every histogram named [name], volatile
    ones included, concatenated across label sets in snapshot order,
    and the total {!Histogram.dropped} across them; [([], 0)] if none
    is registered. Pass both to [Peering_measure.Stats.slo], so a
    verdict says how much of the data it did not see. *)

val row_name : row -> string
(** [name] with labels inlined, e.g. ["core.safety.rejected{site=ams}"]
    — the stable key used by rendered output and JSON artifacts. *)
