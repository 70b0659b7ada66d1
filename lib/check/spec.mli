(** Experiment specifications: a small declarative format describing an
    experiment's allocation and its announcement schedule, so the whole
    experiment can be vetted statically before it touches the testbed.

    Format (one statement per line; comments, separators and tokens
    follow {!Peering_net.Lines}):

    {v
experiment <id>
prefix <cidr>              # allocated prefix
asn <n>                    # allocated (private) origin ASN
may-poison                 # experiment was vetted for AS-path poisoning
announce <cidr> at <t> [path <asn> ...]
withdraw <cidr> at <t>
    v}

    Times are finite seconds (floats) from experiment start; [path] is the
    AS-path suffix appended behind the PEERING mux ASN, as in
    {!Peering_core.Safety.check_announce}. *)

open Peering_net

type event_kind =
  | Announce of Asn.t list  (** path suffix *)
  | Withdraw

type event = {
  ev_time : float;
  ev_line : int;
  ev_prefix : Prefix.t;
  ev_kind : event_kind;
}

type t = {
  id : string;
  prefixes : Prefix.t list;  (** allocation *)
  asns : Asn.t list;  (** allocated origin ASNs *)
  may_poison : bool;
  events : event list;  (** in declaration order *)
}

val parse : string -> (t, Lines.error) result
(** A missing [experiment] statement is an error with no line. *)
