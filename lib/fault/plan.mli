(** Declarative fault plans.

    A plan is a timeline of faults against named targets (links, muxes,
    tunnels) registered with an {!Injector}. Plans carry no randomness
    of their own: probabilistic impairments are resolved per message by
    the injector, drawing from the simulation engine's RNG, so
    identical seeds replay identical failure timelines. *)

type link_profile = {
  loss : float;
      (** per-message loss probability, [0,1]; the transport
          retransmits a lost message, so it arrives late and in order
          ({!Peering_bgp.Session.Retransmit}) *)
  duplicate : float;  (** per-message duplication probability *)
  corrupt : float;  (** per-message corruption probability *)
  reorder : float;  (** per-message extra-delay (reordering) probability *)
  reorder_max_delay : float;  (** max extra seconds for a reordered message *)
}

val pristine : link_profile
(** All rates zero. *)

val lossy :
  ?loss:float ->
  ?duplicate:float ->
  ?corrupt:float ->
  ?reorder:float ->
  ?reorder_max_delay:float ->
  unit ->
  link_profile
(** Build a profile (defaults: all rates 0, [reorder_max_delay] 0.2 s).
    Raises [Invalid_argument] on rates outside [0,1]. *)

(** One fault against one named target. *)
type fault =
  | Impair of { link : string; profile : link_profile; duration : float }
      (** probabilistic message loss/duplication/corruption/reordering
          on a link for [duration] seconds *)
  | Partition of { link : string; duration : float }
      (** the link is cut for [duration] seconds: every message sent
          meanwhile is dropped for good, not retransmitted *)
  | Session_reset of { link : string }
      (** instantaneous transport reset: both FSMs drop without
          NOTIFICATIONs *)
  | Mux_crash of { mux : string; downtime : float }
      (** the mux's BGP process dies and restarts after [downtime] *)
  | Tunnel_blackhole of { tunnel : string; duration : float }
      (** packets entering the tunnel silently vanish for [duration] *)
  | Fate_group of { group : string; faults : fault list }
      (** correlated failure: every member fault fires at the same
          instant, modelling shared fate (one conduit cut, one
          hypervisor death) — the testbed-scale analogue of a PoP's
          tunnels all dying together. Members must be atomic faults:
          nesting groups is a validation error and the injector
          refuses it. *)

type step = { at : float; fault : fault }
(** A fault scheduled at virtual time [at] (relative to arming). *)

type t = step list
(** A timeline, sorted by time. Build with {!of_steps}. *)

val of_steps : step list -> t
(** Sort steps by time. Raises [Invalid_argument] on negative times. *)

val fault_class : fault -> string
(** Stable class tag: ["impair"], ["partition"], ["session_reset"],
    ["mux_crash"], ["tunnel_blackhole"] or ["fate_group"] — the key
    used for per-class recovery metrics. *)

val target : fault -> string
(** The registered name the fault acts on (the group name for
    {!Fate_group}). *)

val describe : fault -> string
(** Human-readable one-liner for traces and logs. *)

(** {2 Static validation}

    A plan is data; campaigns validate it against the injector's
    target registry before arming so typos and malformed windows fail
    fast instead of silently doing nothing at virtual time 300. *)

type targets = {
  links : string list;
  muxes : string list;
  tunnels : string list;
}
(** The names an injector can act on (see [Injector.targets]). *)

type severity =
  | Error  (** the plan cannot mean what it says; refuse to arm *)
  | Warning  (** legal but suspicious; arm it, but say so *)

type issue = {
  severity : severity;
  at : float;  (** the step time the issue anchors to *)
  message : string;
}

val validate : ?targets:targets -> t -> issue list
(** Check a plan, sorted by time then severity. Errors: targets not in
    the registry (only when [targets] is given), impairment rates
    outside [0,1], negative reorder delay, non-positive durations,
    empty or nested fate groups. Warnings: overlapping same-class
    windows on one target, where the injector's generation guard lets
    the later window silently supersede the earlier. An empty list
    means the plan is clean. *)

val errors : issue list -> issue list
(** Just the [Error]-severity issues. *)

val issue_to_string : issue -> string
