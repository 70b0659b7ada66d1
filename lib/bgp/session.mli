(** A point-to-point BGP session: two {!Fsm.t}s joined by a simulated
    wire with latency.

    Every message physically crosses the wire as RFC 4271 bytes —
    encoded with the sender's negotiated options and decoded with the
    receiver's (negotiation is symmetric, so they agree) — so the
    codec is exercised on every control-plane exchange in the
    testbed. *)

(** What a fault hook may do to one in-flight message. *)
type wire_fault =
  | Drop  (** the message never arrives (the path is cut) *)
  | Retransmit
      (** the segment is lost and the transport resends it after a
          retransmission timeout (1 s, doubling per further loss, capped
          at 60 s), consulting the hook again each time: the message
          arrives late, and later messages in the same direction wait
          behind it, as TCP's in-order delivery demands. A close of
          either side discards everything still pending. *)
  | Duplicate  (** the message arrives twice *)
  | Corrupt  (** the marker is smashed so decoding fails at the receiver *)
  | Delay of float  (** extra seconds added to the wire latency *)

type t

val create :
  Peering_sim.Engine.t ->
  a:Fsm.config ->
  b:Fsm.config ->
  ?on_update_a:(Message.update -> unit) ->
  ?on_update_b:(Message.update -> unit) ->
  ?on_established_a:(Wire.session_opts -> unit) ->
  ?on_established_b:(Wire.session_opts -> unit) ->
  ?on_close_a:(string -> unit) ->
  ?on_close_b:(string -> unit) ->
  unit ->
  t
(** Build both FSMs and wire them together with a one-way latency of
    0.01 s. Side [a] is active, side [b] passive (the
    [passive] flag in the supplied configs is overridden accordingly).
    [on_update_a] fires when side [a] {e receives} an update. Call
    {!start} then run the engine to establish. *)

val start : t -> unit

val a : t -> Fsm.t
val b : t -> Fsm.t

val established : t -> bool
(** Both sides in Established state. *)

val send_from_a : t -> Message.t -> unit
(** Inject an application message (normally an UPDATE) from side [a];
    it crosses the wire and reaches [b]'s FSM. *)

val send_from_b : t -> Message.t -> unit

val drop : t -> reason:string -> unit
(** Tear the session down from side [a]. *)

val reset : t -> reason:string -> unit
(** Transport reset: both FSMs close at once without NOTIFICATIONs, as
    if the TCP connection was torn down underneath them. Each side
    auto-restarts if its config asks for it. *)

val set_fault_hook : t -> (Message.t -> wire_fault option) option -> unit
(** Install (or clear, with [None]) a hook consulted for every message
    placed on the wire; returning [Some fault] impairs that delivery.
    Used by the fault-injection layer — the hook decides, the session
    obeys. *)
