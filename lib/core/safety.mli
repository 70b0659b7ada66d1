(** The PEERING safety layer (paper §3, "Enforcing safety").

    Servers interpose on everything clients do, so this is where the
    testbed guarantees it cannot harm the Internet: no hijacks (only
    allocated prefixes may be announced), no leaks (only PEERING's
    public ASN reaches peers unless poisoning was vetted), isolation
    between experiments, and route-flap dampening so flapping clients
    cannot destabilise upstream routing. *)

open Peering_net
open Peering_bgp

type reason =
  | Experiment_not_active
  | Prefix_not_owned  (** outside PEERING's address supply — a hijack *)
  | Prefix_not_allocated
      (** inside PEERING space but not this experiment's — isolation *)
  | Poisoning_not_permitted of Asn.t
      (** public ASN in the path suffix without vetting *)
  | Dampened of float  (** suppressed until the given virtual time *)
  | Announced_by_other_experiment
  | Mux_down
      (** the serving mux has crashed and not yet restarted; retry
          after failover *)

val reason_to_string : reason -> string

type t
(** One safety filter, shared by every server of a testbed: the
    announcement registry (prefix → claiming client), the dampening
    state and the supply test. *)

val create :
  ?dampening:Dampening.params ->
  peering_asn:Asn.t ->
  owns:(Prefix.t -> bool) ->
  unit ->
  t
(** [owns] is the testbed's supply test ({!Peering_net.Prefix_pool.mem_supply}). *)

val check_announce :
  t ->
  now:float ->
  client:string ->
  experiment:Experiment.t ->
  prefix:Prefix.t ->
  path_suffix:Asn.t list ->
  (unit, reason) result
(** Validate (and on success register) a client announcement. A prefix
    whose withdrawals have accumulated too much dampening penalty gets
    [Dampened]. *)

val note_withdraw : t -> now:float -> client:string -> prefix:Prefix.t -> unit
(** Withdrawals count as flaps. *)

type release_outcome =
  | Released  (** the (client, prefix) claim existed and is now gone *)
  | Not_claimed
      (** nothing was registered for the prefix — a double release or
          a release of something never claimed; a no-op *)
  | Claimed_by_other of string
      (** the prefix is registered to the named {e other} client; the
          registration is left untouched (releasing someone else's
          claim would break isolation) *)

val release : t -> client:string -> prefix:Prefix.t -> release_outcome
(** Forget the registration (client disconnect), keeping the
    dampening history. Releases are claim-keyed per (client, prefix):
    only the registering client can release, and the outcome says
    explicitly whether anything was released — double releases and
    releases of unclaimed prefixes return {!Not_claimed} rather than
    silently succeeding. *)

val announced_by : t -> Prefix.t -> string option
(** Which client currently has the prefix announced, if any. *)

val sanitize_suffix : t -> Experiment.t -> Asn.t list -> Asn.t list
(** The path suffix as the Internet will see it: private ASNs
    stripped; with poisoning vetted, public ASNs retained. *)

val suppressed_until : t -> now:float -> client:string -> Prefix.t -> float option
