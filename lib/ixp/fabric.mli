(** An Internet exchange point: a member directory over a shared L2
    fabric, which members use its route server, and the social
    workflow of bilateral peering requests. *)

open Peering_net

type response =
  | Accepted
  | Declined
  | No_response
  | Replied_with_questions
      (** the member answered asking why a traffic-less AS wants to
          peer — §4.1 reports exactly one of these *)

type member = {
  asn : Asn.t;
  policy : Peering_policy.t;
  uses_route_server : bool;
}

type t

val create :
  name:string -> country:Country.t -> rng:Peering_sim.Rng.t -> unit -> t
(** The fabric starts with no members. *)

val add_member :
  t -> ?uses_route_server:bool -> policy:Peering_policy.t -> Asn.t -> unit
(** Register a member, marked as a route-server user when
    [uses_route_server] (default false). Duplicate ASNs raise
    [Invalid_argument]. *)

val members : t -> member list
val n_members : t -> int

val route_server_users : t -> Asn.t list
(** Members that use the route server, ascending. *)

val non_route_server_members : t -> member list

val policy_census : t -> (Peering_policy.t * int) list
(** Count of non-route-server members per published policy, in
    {!Peering_policy.all} order. *)

val request_peering : t -> target:Asn.t -> response
(** Simulate sending a bilateral peering request to [target]. The
    outcome is drawn from the member's policy
    ({!Peering_policy.accept_probability}); a member that already
    answered keeps giving the same answer (deterministic per member).
    Raises [Invalid_argument] for non-members. *)

val bilateral_peers : t -> Asn.t list
(** Members that have accepted a bilateral request so far. *)
