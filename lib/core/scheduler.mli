(** The multi-tenant experiment scheduler (paper §3: "PEERING can
    support multiple simultaneous experiments").

    The scheduler is the admission-controlled path from a
    portal-approved proposal to a running experiment on the shared
    muxes. It layers three guarantees on top of the runtime
    {!Safety} filters:

    - {b Prefix leases}: every admitted tenant holds its allocated
      prefixes on a lease drawn from the controller's pool. Leases
      expire on the virtual clock (revoking the tenant: announcements
      withdrawn, safety claims released, prefixes returned to the
      pool) and can be renewed or revoked early.
    - {b Static admission control}: before a tenant touches a mux,
      its allocation and declared poison targets are checked against
      every running tenant — overlapping prefixes and cross-tenant
      poisoning are rejected at admission time, not at announce time.
      Origin ASNs cannot collide: the controller never allocates one
      twice.
    - {b Fair-share update batching}: announce/withdraw requests are
      queued per tenant and drained in deficit rounds of at most
      [quota] operations each, so a chatty tenant cannot starve
      others of update slots. Within a tenant, requests apply in
      FIFO order; granted operations are packed into RFC 4271 UPDATE
      messages with {!Peering_bgp.Update_group}.

    Admission decisions are span-traced ([core.sched.admit]) and the
    whole lifecycle is counted under [core.sched.*] metrics. Every
    decision also lands in an append-only {!log} whose content is a
    pure function of the seed, which is what the [@sched-isolation]
    harness's byte-identity oracle compares. *)

open Peering_net

(** {1 Fair-share batching}

    The batcher is generic so its fairness laws can be tested in
    isolation (see the QCheck laws in [test_core.ml]): per-tenant
    granted slots never deviate from fair share by more than one
    round's quota, and each tenant's operations drain in FIFO
    order. *)

module Batcher : sig
  type 'a t
  (** A set of per-tenant FIFO queues drained in deficit rounds. *)

  val create : quota:int -> 'a t
  (** [create ~quota] makes an empty batcher granting at most [quota]
      operations per tenant per round. [quota] must be positive. *)

  val quota : 'a t -> int
  (** The per-tenant per-round grant bound. *)

  val enqueue : 'a t -> tenant:string -> 'a -> unit
  (** Append an operation to the tenant's queue. Tenants keep their
      first-seen order across rounds, so draining is deterministic. *)

  val pending : 'a t -> int
  (** Total queued operations across all tenants. *)

  val pending_for : 'a t -> string -> int
  (** Queued operations for one tenant (0 if unknown). *)

  val tenants : 'a t -> string list
  (** Tenants in first-seen order (including ones drained empty). *)

  val drop_tenant : 'a t -> string -> int
  (** Discard a tenant's queue (lease revocation), returning the
      number of operations dropped. *)

  val drain_round : 'a t -> (string * 'a list) list
  (** One deficit round: every tenant with queued work is granted
      [min quota pending] operations, FIFO within the tenant, tenants
      in first-seen order. [[]] iff nothing is pending. *)

  val drain_all : 'a t -> (string * 'a list) list list
  (** Rounds until all queues are empty. *)
end

(** {1 Proposals and verdicts} *)

type proposal = {
  p_tenant : string;  (** tenant id: experiment id and client id *)
  p_owner : string;  (** researcher account, as on the portal *)
  p_description : string;  (** vetted by the controller (≥ 20 chars) *)
  p_n_prefixes : int;  (** prefix blocks to lease from the pool *)
  p_may_poison : bool;  (** AS-path poisoning approved by the board *)
  p_poison_targets : Asn.t list;
      (** public ASNs the experiment plans to poison; checked against
          every other tenant's origin ASNs at admission *)
  p_sites : string list;  (** sites to connect to; [[]] = all sites *)
  p_lease_s : float option;
      (** lease duration in virtual seconds, which must be positive;
          [None] = 3600 *)
}
(** A portal-approved experiment proposal, ready for admission. *)

val proposal :
  ?owner:string ->
  ?description:string ->
  ?n_prefixes:int ->
  ?may_poison:bool ->
  ?poison_targets:Asn.t list ->
  ?sites:string list ->
  ?lease_s:float ->
  string ->
  proposal
(** [proposal tenant] with sensible defaults: 1 prefix, no poisoning,
    all sites, a 3600 s lease, a description that passes vetting. *)

type issue = {
  issue_code : string;
      (** stable code: ["SCHED-SITE"], ["SCHED-DUP"], ["SCHED-LEASE"],
          ["SCHED-PROPOSE"], ["SCHED-POISON"], ["SCHED-XOVERLAP"] or
          ["SCHED-XPOISON"] *)
  issue_message : string;  (** human-readable explanation *)
}
(** One admission-control finding; every finding rejects. *)

type verdict =
  | Admitted of { lease_until : float }
      (** running; the lease expires at the given virtual time *)
  | Rejected of issue list
      (** refused; every issue is a reason *)
      (** The admission decision for one proposal. *)

val verdict_to_string : verdict -> string
(** One-line rendering, stable across runs ("admitted until t=…" or
    "rejected: CODE, …"). *)

(** {1 The scheduler} *)

type t
(** A scheduler bound to one testbed. *)

val create :
  ?quota:int ->
  ?round_interval:float ->
  ?extra_supply:Prefix.t list ->
  Testbed.t ->
  t
(** [create tb] binds a scheduler to the testbed. [quota] (default 4)
    is the per-tenant per-round update-slot grant; [round_interval]
    (default 1.0) the virtual seconds between batching rounds when
    requests are pending; [extra_supply] donates additional address
    blocks to the controller's pool first (the paper's §3 donated
    prefixes — the default /19 holds only 32 /24 leases, not enough
    for 100+ concurrent tenants). *)

val admit : t -> proposal -> verdict
(** Run admission control and, on success, start the tenant: allocate
    its lease from the pool, connect its client to the proposal's
    sites, and schedule lease expiry. A lease that is not positive
    (NaN included) is rejected as [SCHED-LEASE] before any
    allocation. Span-traced as [core.sched.admit]; counted in
    [core.sched.admitted] / [core.sched.rejected]. A rejected proposal
    leaves no allocation behind. *)

val tenants : t -> string list
(** Running tenants in admission order. *)

val is_running : t -> string -> bool
(** Whether the tenant is currently admitted and not evicted. *)

val leased_prefixes : t -> string -> Prefix.t list
(** The tenant's leased blocks ([[]] if not running). *)

val lease_until : t -> string -> float option
(** Lease expiry time for a running tenant. *)

val client : t -> string -> Client.t option
(** The tenant's client handle, for direct RIB inspection. *)

val renew : t -> tenant:string -> lease_s:float -> (float, string) result
(** Extend a running tenant's lease by [lease_s] from now, returning
    the new expiry. [Error] if the tenant is not running or [lease_s]
    is not positive. *)

val evict : t -> tenant:string -> reason:string -> bool
(** Revoke the lease now: pending requests are dropped, announcements
    withdrawn, safety claims released, prefixes returned to the pool.
    Returns false if the tenant is not running. Counted in
    [core.sched.evicted]. *)

val complete : t -> tenant:string -> bool
(** Voluntary teardown: same cleanup as {!evict} but counted in
    [core.sched.completed]. *)

(** {1 Update requests and batching rounds} *)

val request_announce :
  t ->
  tenant:string ->
  ?sites:string list ->
  ?path_suffix:Asn.t list ->
  Prefix.t ->
  (unit, string) result
(** Queue an announcement (applied at the tenant's next granted
    slots). Refused immediately if the tenant is not running or the
    prefix is outside its lease; per-site safety verdicts happen at
    apply time. While requests are pending, batching rounds
    self-schedule on the engine every [round_interval]. *)

val request_withdraw :
  t -> tenant:string -> ?sites:string list -> Prefix.t -> (unit, string) result
(** Queue a withdrawal. *)

val pending : t -> int
(** Update requests queued and not yet granted. *)

val pump : t -> int
(** Drain all queues synchronously (no virtual-time delay between
    rounds), returning the number of operations applied. Tests use
    this; live runs let the engine fire the rounds instead. *)

val rounds_run : t -> int
(** Batching rounds executed so far. *)

val ops_applied : t -> int
(** Update operations applied so far (announce + withdraw). *)

(** {1 Oracles, logs, reports} *)

val isolation_violations : t -> int
(** Paranoid runtime oracle, counted over the current state: pairs of
    running tenants with overlapping leases, plus leased prefixes
    whose safety-registry claim belongs to some other tenant. Always
    0 unless admission control is broken — the bench asserts this at
    100+ tenants. *)

val log : t -> string list
(** The append-only decision log (admissions, rejections, rounds,
    renewals, evictions) in chronological order. Deterministic
    for a given seed: the [@sched-isolation] harness compares two
    same-seed runs byte for byte. *)

val to_json : t -> Peering_obs.Json.t
(** The schedule as a [peering-sched/2] document: per-tenant status,
    leases, grant counts, the decision log and summary counters.
    Deterministic for a given seed (feeds the [sched-determinism]
    cmp rule). *)
