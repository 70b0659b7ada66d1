(** Whole-topology structural passes and cross-experiment conflict
    detection.

    Topology codes:
    - [GRAPH-PARTITION] (warning): the AS graph splits into several
      connected components.
    - [GRAPH-RELCYCLE] (error): the customer->provider digraph has a
      cycle — some AS transitively buys transit from itself; with
      prefer-customer preferences this also voids the Gao–Rexford
      convergence guarantee.
    - [GRAPH-MOAS] (warning): a prefix originated by more than one AS.

    Cross-experiment codes (over a batch of {!Spec}s):
    - [XEXP-OVERLAP] (error): two experiments' allocated or announced
      prefixes overlap.
    - [XEXP-ASN] (error): two experiments share an origin ASN — their
      BGP sessions on a shared mux collide.
    - [XEXP-POISON] (warning): an experiment poisons an ASN allocated
      to another experiment in the batch. *)

val partition : World.t -> Diagnostic.t list
val provider_cycle : World.t -> Diagnostic.t list
val moas : World.t -> Diagnostic.t list

val spec_conflicts : (string option * Spec.t) list -> Diagnostic.t list
(** Pairwise conflicts over a batch of [(file, spec)] pairs.
    Diagnostics are stamped with the first spec's file (and the
    poisoning event's line for [XEXP-POISON]). *)
