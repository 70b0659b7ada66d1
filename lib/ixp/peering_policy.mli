(** Published peering policies of IXP members.

    §4.1 censuses AMS-IX members not on the route server: 48 open, 12
    closed, 40 case-by-case, 15 unlisted. *)

type t =
  | Open  (** peers with anyone who asks *)
  | Selective  (** peers subject to requirements (ratios, volume) *)
  | Case_by_case
  | Closed
  | Unlisted  (** no published policy *)

val to_string : t -> string
val equal : t -> t -> bool
val all : t list

val accept_probability : t -> float
(** Probability the member accepts an unsolicited peering request from
    a small, traffic-less AS such as PEERING. Calibrated to the
    paper's §4.1 narrative: open members overwhelmingly accept (the
    "vast majority"); others rarely do. *)
