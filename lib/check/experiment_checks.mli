(** Static vetting of experiment specs against the runtime safety rules
    of {!Peering_core.Safety} — the same faults the mux would refuse at
    run time, caught before the experiment starts.

    Codes emitted here:
    - [EXP-HIJACK] (error): an announced prefix falls outside the
      experiment's allocation (origin hijack)
    - [EXP-POISON] (error): a path suffix contains a public ASN but the
      experiment has no poisoning approval
    - [EXP-DAMPEN] (error): the announce/withdraw schedule would trip
      RFC 2439 route-flap dampening, so later announcements would be
      refused *)

open Peering_net

val default_peering_asn : Asn.t
(** AS 47065, the testbed's mux ASN ({!Peering_core.Testbed}). *)

val hijacks : Spec.t -> Diagnostic.t list

val poisonings : Spec.t -> Diagnostic.t list
(** Private ASNs, allocated ASNs and {!default_peering_asn} are always
    allowed in a path suffix; any other ASN requires [may_poison]. *)

val dampening : Spec.t -> Diagnostic.t list
(** Replays the schedule through an RFC 2439 penalty model with the
    default parameters of {!Peering_bgp.Dampening.create} (withdrawals
    flap, exactly as {!Peering_core.Safety.note_withdraw} records them)
    and flags announcements that would arrive while suppressed. *)
