(** RPKI route-origin validation (RFC 6811).

    The paper's motivating example for rich connectivity is a study of
    secure-BGP adoption ("a researcher recently submitted a proposal
    to use PEERING announcements to assess adoption. BGP security
    depends on where announcements propagate...", §2). This module is
    the validation substrate: a table of Route Origin Authorizations
    and the Valid / Invalid / NotFound test ASes apply when they
    enforce ROV. *)

open Peering_net

type roa = {
  prefix : Prefix.t;
  max_length : int;  (** longest announcement the ROA authorises *)
  origin : Asn.t;
}

type validity =
  | Valid
  | Invalid  (** covered by ROAs, none of which authorises it *)
  | Not_found  (** no covering ROA *)

type t

val empty : t

val add_roa : t -> ?max_length:int -> prefix:Prefix.t -> Asn.t -> t
(** Register a ROA; [max_length] defaults to the prefix's own length
    (the recommended practice). Raises [Invalid_argument] if
    [max_length] is shorter than the prefix or longer than 32. *)

val roa_count : t -> int

val covering : t -> Prefix.t -> roa list
(** All ROAs whose prefix covers the announcement. *)

val validate : t -> prefix:Prefix.t -> origin:Asn.t option -> validity
(** RFC 6811: [Valid] if some covering ROA matches the origin and the
    announced length is within [max_length]; [Invalid] if covering
    ROAs exist but none matches; [Not_found] otherwise. [origin =
    None] (an AS_SET origin) is never [Valid]. *)

val validate_route : t -> Route.t -> validity
(** Validate a route by its prefix and AS-path origin. *)
