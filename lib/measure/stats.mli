(** Small descriptive-statistics helpers for experiment reporting. *)

val mean : float list -> float
(** 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 for fewer than two samples. *)

val percentile : float -> float list -> float
(** [percentile p l] for [p] in [0, 100], by linear interpolation
    between order statistics. Raises [Invalid_argument] on an empty
    list or out-of-range [p]. *)

val median : float list -> float

val histogram : bins:int -> float list -> (float * float * int) list
(** Equal-width bins over the sample range:
    [(lo, hi, count)] per bin, ascending. Raises on empty input or
    [bins < 1]. The last bin is inclusive of the maximum. *)

val cdf_points : float list -> (float * float) list
(** The empirical CDF as [(value, fraction <= value)] pairs, one per
    distinct sorted sample — the form the paper's figures plot. *)
