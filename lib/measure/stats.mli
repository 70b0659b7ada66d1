(** Small descriptive-statistics helpers for experiment reporting, and
    the one p99 SLO judge. *)

val percentile : float -> float list -> float
(** [percentile p l] for [p] in [0, 100], by linear interpolation
    between order statistics. Raises [Invalid_argument] on an empty
    list or out-of-range [p]. *)

val median : float list -> float

(** A p99 recovery-budget verdict: how much of the budget the observed
    tail consumes. *)
type slo = {
  slo_name : string;  (** the budget's class, e.g. ["compound"] *)
  budget_s : float;  (** the p99 budget, virtual seconds, > 0 *)
  p99_s : float;  (** [percentile 99.0] of the samples; [0.] when none *)
  samples : int;  (** samples the verdict is based on *)
  burn : float;  (** [p99_s /. budget_s]; > 1 means the SLO burned *)
  met : bool;  (** [p99_s <= budget_s] *)
}

val slo : name:string -> budget_s:float -> float list -> slo
(** [slo ~name ~budget_s samples] judges one positive budget against
    observed samples. No samples is vacuously met with zero burn (a
    clean run reports exactly that). The chaos campaign and
    [peering_cli monitor] both judge recovery with it. *)
