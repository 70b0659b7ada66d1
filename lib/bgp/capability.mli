(** BGP capabilities (RFC 5492) relevant to PEERING.

    ADD-PATH (RFC 7911) is the one the paper singles out: BIRD-style
    session multiplexing uses it to carry every peer's route over a
    single client session instead of one session per upstream peer. *)

type add_path_mode = Receive | Send | Send_receive

type t =
  | Four_octet_asn of int  (** RFC 6793, carries the speaker's ASN *)
  | Add_path of add_path_mode  (** RFC 7911, IPv4 unicast *)
  | Route_refresh  (** RFC 2918 *)
  | Graceful_restart of int  (** RFC 4724, restart time seconds *)

val negotiated_add_path : t list -> t list -> bool
(** [negotiated_add_path local remote] is [true] when both sides'
    capability lists allow ADD-PATH in compatible directions (local can
    send and remote can receive, or vice versa). *)

val negotiated_four_octet : t list -> t list -> bool

val negotiated_graceful_restart : t list -> t list -> int option
(** [negotiated_graceful_restart local remote] is the peer's advertised
    RFC 4724 restart time when both sides advertise the capability:
    the local speaker should then act as a helper and retain the
    peer's routes that long after the session drops. [None] if either
    side lacks the capability. *)

val pp : Format.formatter -> t -> unit
