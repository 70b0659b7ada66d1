(** Small descriptive-statistics helpers for experiment reporting, and
    the one p99 SLO judge. *)

val percentile : float -> float list -> float
(** [percentile p l] for [p] in [0, 100], by linear interpolation
    between order statistics. Raises [Invalid_argument] on an empty
    list or out-of-range [p]. *)

val median : float list -> float

(** A p99 budget verdict: how much of the budget the observed tail
    consumes, and how many samples it did not see. *)
type slo = {
  slo_name : string;  (** the budget's name, e.g. ["compound"] *)
  budget_s : float;  (** the p99 budget, virtual seconds, > 0 *)
  p99_s : float;  (** [percentile 99.0] of the samples; [0.] when none *)
  samples : int;  (** samples the verdict is based on *)
  dropped : int;
      (** observations the sample store did not retain; when > 0 the
          verdict judges only part of the data *)
  burn : float;  (** [p99_s /. budget_s]; > 1 means the SLO burned *)
  met : bool;
      (** [p99_s <= budget_s] over the retained samples; never with
          none *)
}

val slo : name:string -> budget_s:float -> dropped:int -> float list -> slo
(** [slo ~name ~budget_s ~dropped samples] judges one positive budget
    against observed samples; [dropped] is the count the store did not
    retain, as {!Peering_obs.Metrics.histogram_samples} returns it. No
    samples is a miss with zero burn: a budget with nothing to judge
    it by is not met. The chaos campaign and [peering_cli monitor]
    both judge with it. *)

val slo_json : slo -> Peering_obs.Json.t
(** The one JSON form of a verdict:
    [{"name", "budget_s", "p99_s", "samples", "dropped", "burn",
    "met"}]. *)

val slo_header : string
(** The column header matching {!slo_row}. *)

val slo_row : slo -> string
(** The one text row of a verdict, [dropped] included, with no
    trailing newline. *)
