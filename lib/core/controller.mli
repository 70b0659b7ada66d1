(** The PEERING controller: the management plane the paper describes
    as "a prototype web service" plus the operational automation —
    experiment vetting (advisory board), prefix and private-ASN
    allocation, and supply donations. Announcements on a schedule go
    through {!Scheduler}'s batching rounds. *)

open Peering_net

type t

val create : supply:Prefix.t list -> t
(** [supply] is PEERING's address space (the paper's /19), handed out
    in /24 blocks ("a client per /24"). *)

val propose :
  t ->
  id:string ->
  owner:string ->
  description:string ->
  ?n_prefixes:int ->
  ?may_poison:bool ->
  unit ->
  (Experiment.t, string) result
(** Submit a proposal. Vetting rules (the advisory board): a
    non-trivial description (≥ 20 chars), 1 to 4 prefixes, pool not
    exhausted, unique id. On success the experiment is [Approved] with
    its prefixes and one private ASN allocated. *)

val activate : t -> Experiment.t -> unit
(** Move an approved experiment to [Active]. Raises
    [Invalid_argument] unless approved. *)

val stop : t -> Experiment.t -> unit
(** Stop and return its prefixes to the pool. *)

val find_experiment : t -> string -> Experiment.t option

val owns : t -> Prefix.t -> bool
(** Supply-ownership test (feeds {!Safety.create}). *)

val available_blocks : t -> int

val donate_supply : t -> Prefix.t -> unit
(** Researchers have offered to donate IPv4 prefixes (paper §3). *)
