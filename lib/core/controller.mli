(** The PEERING controller: the management plane the paper describes
    as "a prototype web service" plus the operational automation —
    experiment vetting (advisory board), prefix and private-ASN
    allocation, scheduled announcements with researcher notification,
    and supply donations. *)

open Peering_net

type t

val create :
  Peering_sim.Engine.t ->
  supply:Prefix.t list ->
  ?alloc_len:int ->
  ?max_prefixes_per_experiment:int ->
  unit ->
  t
(** [supply] is PEERING's address space (the paper's /19);
    [alloc_len] the per-experiment block size (default 24, "a client
    per /24"). IPv6 experiment blocks are /48s out of
    [2804:269c::/32] — the paper's planned IPv6 support. *)

val propose :
  t ->
  id:string ->
  owner:string ->
  description:string ->
  ?n_prefixes:int ->
  ?n_v6_prefixes:int ->
  ?n_private_asns:int ->
  ?may_poison:bool ->
  ?may_spoof:bool ->
  unit ->
  (Experiment.t, string) result
(** Submit a proposal. Vetting rules (the advisory board): a
    non-trivial description (≥ 20 chars), within the per-experiment
    prefix cap, pool not exhausted, unique id. On success the
    experiment is [Approved] with prefixes and private ASNs
    allocated. *)

val activate : t -> Experiment.t -> unit
(** Move an approved experiment to [Active]. Raises
    [Invalid_argument] unless approved. *)

val stop : t -> Experiment.t -> unit
(** Stop and return its prefixes to the pool. *)

val experiments : t -> Experiment.t list
val find_experiment : t -> string -> Experiment.t option

val owns : t -> Prefix.t -> bool
(** Supply-ownership test (feeds {!Safety.create}). *)

val available_blocks : t -> int

val donate_supply : t -> Prefix.t -> unit
(** Researchers have offered to donate IPv4 prefixes (paper §3). *)

val schedule_announcement :
  t ->
  at:float ->
  action:(unit -> unit) ->
  ?notify:(float -> unit) ->
  unit ->
  unit
(** Schedule an action (announce/withdraw closure) at an absolute
    virtual time; [notify] is invoked with the execution time so the
    researcher can line up measurements — the paper's scheduling web
    service. *)

val scheduled_count : t -> int
(** Actions scheduled and not yet executed. *)
