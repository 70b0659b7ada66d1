(** RPKI route-origin validation (RFC 6811).

    The paper's motivating example for rich connectivity is a study of
    secure-BGP adoption ("a researcher recently submitted a proposal
    to use PEERING announcements to assess adoption. BGP security
    depends on where announcements propagate...", §2). This module is
    the validation substrate: a table of Route Origin Authorizations
    and the Valid / Invalid / NotFound test ASes apply when they
    enforce ROV. *)

open Peering_net

type validity =
  | Valid
  | Invalid  (** covered by ROAs, none of which authorises it *)
  | Not_found  (** no covering ROA *)

type t

val empty : t

val add_roa : t -> prefix:Prefix.t -> Asn.t -> t
(** Register a ROA whose maxLength is the prefix's own length (the
    recommended practice): it authorises [prefix] itself and no
    more-specific. *)

val validate : t -> prefix:Prefix.t -> origin:Asn.t option -> validity
(** RFC 6811: [Valid] if a ROA for exactly [prefix] matches the origin;
    [Invalid] if covering ROAs exist but none authorises it;
    [Not_found] otherwise. [origin = None] (an AS_SET origin) is never
    [Valid]. *)
