(** Priority queue of timestamped events (binary min-heap).

    Ties on time break by insertion order, so simulations are
    deterministic regardless of heap internals. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit
(** Schedule an event at absolute [time]. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event, if any. *)

val peek_time : 'a t -> float option
(** Time of the earliest event without removing it. *)
