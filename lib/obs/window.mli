(** A fixed-capacity ring buffer of [(time, value)] samples: the
    monitoring station's ({!Peering_measure.Monitor}) ingestion
    time-series, from which [peering_cli monitor] reads its rolling
    ingest rate and feed gaps.  Pushing past capacity evicts the oldest
    sample and counts it as dropped, so the window always holds the
    newest [capacity] observations.

    Everything is driven by virtual timestamps supplied by the caller —
    nothing here reads the wall clock — so two identically-seeded runs
    produce byte-identical health reports.  SLO verdicts over the
    samples are [Peering_measure.Stats.slo]'s job. *)

type t
(** A mutable bounded time-series. *)

val create : capacity:int -> t
(** [create ~capacity] is an empty series retaining the newest
    [capacity] samples.  Raises [Invalid_argument] when
    [capacity < 1]. *)

val push : t -> time:float -> float -> unit
(** Append a sample.  Times are expected non-decreasing (virtual
    clock); this is not enforced, but {!rate} assumes it. *)

val length : t -> int
(** Samples currently retained. *)

val dropped : t -> int
(** Samples evicted because the ring was full. *)

val last : t -> (float * float) option
(** Newest [(time, value)], if any. *)

val rate : t -> float
(** The sum of values newer than [newest - 60 s], divided by 60 — a
    rolling per-second rate over the last minute.  [0.] when empty. *)

val to_list : t -> (float * float) list
(** Retained samples, oldest first. *)
