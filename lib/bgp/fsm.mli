(** BGP session finite-state machine (RFC 4271 §8, condensed).

    One [Fsm.t] is one side of a session. It is transport-agnostic: the
    owner supplies [send] (we call it with messages to emit) and feeds
    received messages to {!handle}. Timers (hold, keepalive,
    connect-retry) run on the shared simulation {!Peering_sim.Engine}. *)

open Peering_net

type state = Idle | Connect | Active | Open_sent | Open_confirm | Established

type config = {
  local_asn : Asn.t;
  router_id : Ipv4.t;
  hold_time : int;  (** proposed hold time, seconds *)
  auto_restart : bool;
      (** if true, non-administrative closes schedule a reconnect with
          exponential backoff: the IdleHoldTime starts at 5 s, doubles
          (with jitter from the engine RNG) on every failed attempt up
          to a cap, and resets on reaching Established; {!stop} never
          auto-restarts *)
  capabilities : Capability.t list;
  passive : bool;  (** if true, wait for the peer's OPEN before sending ours *)
}

val default_config : local_asn:Asn.t -> router_id:Ipv4.t -> config
(** hold 90 s, retry 5 s, no auto-restart, 4-octet-ASN capability,
    active mode. *)

type callbacks = {
  send : Message.t -> unit;
  on_established : Wire.session_opts -> unit;
      (** fired on transition to Established with negotiated options *)
  on_update : Message.update -> unit;
  on_close : string -> unit;  (** session dropped, with reason *)
}

type t

val create : Peering_sim.Engine.t -> config -> callbacks -> t

val start : t -> unit
(** Begin session establishment (ManualStart event). *)

val stop : t -> reason:string -> unit
(** Administratively close (sends CEASE if established). Suppresses
    [auto_restart] until the next explicit {!start}. *)

val kill : t -> reason:string -> unit
(** Transport loss: close without sending a NOTIFICATION (the peer
    discovers the failure through its own timers). Auto-restarts when
    the config asks for it. *)

val handle_garbage : t -> reason:string -> unit
(** The wire delivered undecodable bytes (corruption fault): counts an
    FSM error, sends a message-header NOTIFICATION and closes. *)

val handle : t -> Message.t -> unit
(** Deliver a message received from the peer. *)

val state : t -> state
val negotiated : t -> Wire.session_opts option
(** Session options once Established. *)

val peer_label : t -> string
(** The remote peer's ASN as a string once its OPEN has arrived,
    ["?"] before that — the identity used in trace events. *)

val established_count : t -> int
(** Number of times this FSM has reached Established (flap counting). *)

val graceful_restart_time : t -> int option
(** The peer's RFC 4724 restart time, once both sides negotiated the
    capability. Deliberately survives a close: the helper needs it
    exactly when the session is down. *)
