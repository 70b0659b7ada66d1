(** BGP-4 messages (RFC 4271 §4). *)

open Peering_net

type open_msg = {
  version : int;  (** always 4 *)
  asn : Asn.t;
  hold_time : int;  (** seconds; 0 disables keepalives *)
  router_id : Ipv4.t;
  capabilities : Capability.t list;
}

type path_id = int
(** RFC 7911 ADD-PATH identifier; 0 when the session does not
    negotiate add-path. *)

type update = {
  withdrawn : (path_id * Prefix.t) list;
  attrs : Attrs.t option;  (** [None] iff [nlri] is empty *)
  nlri : (path_id * Prefix.t) list;
}

(** A NOTIFICATION body: error code, subcode, and optional data
    rendered as text (RFC 4271 §4.5). *)
type notification = {
  code : int;
  subcode : int;
  reason : string;
}

(** The four BGP-4 message kinds. *)
type t =
  | Open of open_msg  (** session establishment (§4.2) *)
  | Update of update  (** route advertisement/withdrawal (§4.3) *)
  | Keepalive  (** hold-timer refresh (§4.4) *)
  | Notification of notification  (** error + session teardown (§4.5) *)

(** Standard notification error codes (RFC 4271 §4.5). *)
module Error : sig
  val message_header : int
  val open_message : int
  val update_message : int
  val hold_timer_expired : int
  val fsm : int
  val cease : int
end

val update_of_announce : ?path_id:path_id -> Prefix.t -> Attrs.t -> t
(** A single-prefix announcement UPDATE. *)

val update_of_withdraw : Prefix.t -> t
(** A single-prefix withdrawal UPDATE (no attributes), under path id
    0. *)

val pp : Format.formatter -> t -> unit
(** One-line human rendering for logs and test failures. *)
