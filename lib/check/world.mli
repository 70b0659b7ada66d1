(** A whole-testbed verification world: the input to
    {!Check.check_world}.

    A world bundles everything the semantic passes reason over at
    once — an {!Peering_topo.As_graph} topology with business
    relationships and originated prefixes, per-directed-edge {e export
    abstractions} (the abstract domain of the static leak analysis),
    per-session import preferences (stability analysis), Peerlock
    configuration and a batch of experiment {!Spec}s (conflict
    detection).

    {2 Export abstractions}

    Every directed edge [u -> v] carries an {!export_abs} describing
    what [u] may export to [v]. The default — no override — is
    Gao–Rexford discipline over all prefixes. Overrides come from an
    explicit [export]/[leak] statement in a [.world] file or from
    {!inject_leak}/{!add_export_window}. The abstraction always
    {e over}-approximates the concrete export behaviour, which is what
    makes the leak analysis sound (DESIGN.md §11).

    {2 The .world file format}

    One statement per line; comments, separators and tokens follow
    {!Peering_net.Lines}:

    {v
as <asn> [kind]               # kind: tier1|large-transit|small-transit|
                              #       stub|content|enterprise (default stub)
edge <a> <rel> <b>            # <b> is <a>'s customer|provider|peer
originate <asn> <cidr>
export <u> <v> permit-all     # u exports everything to v (leak-prone)
export <u> <v> none           # u exports nothing to v
export <u> <v> prefix <cidr> [<ge> <le>]   # window; repeatable (union);
                              # needs 0 <= ge <= le <= 32
leak <u> <v>                  # u ignores export discipline towards v
local-pref <v> <u> <n>        # v's import preference for routes from u
peerlock <v> <t>              # v drops routes carrying t unless from t
peerlock-lite <v>             # v drops customer/peer routes carrying
                              # any tier-1 it is not hearing them from
    v} *)

open Peering_net
open Peering_topo

type export_classes =
  | Gr_only  (** only what Gao–Rexford discipline allows *)
  | Any_class  (** exports regardless of learned class (leak-prone) *)

type export_prefixes =
  | Any_prefix
  | Windows of (Prefix.t * int * int) list
      (** prefix-list style [(p, ge, le)] windows, unioned *)
  | No_prefix  (** exports nothing *)

type export_abs = { classes : export_classes; prefixes : export_prefixes }
(** What a directed edge may export: a route passes iff its class
    passes [classes] {e and} its prefix passes [prefixes]. *)

val default_export : export_abs
(** [{ classes = Gr_only; prefixes = Any_prefix }] — plain
    Gao–Rexford. *)

type t

val of_graph : As_graph.t -> t
(** Wrap an existing topology (shared, not copied) with no overrides. *)

val graph : t -> As_graph.t

val export_at : t -> Asn.t -> Asn.t -> export_abs
(** The abstraction on the directed edge [u -> v];
    {!default_export} when never overridden. *)

val inject_leak : t -> from:Asn.t -> to_:Asn.t -> unit
(** Mark the directed edge as leaking: classes become {!Any_class},
    the prefix component is kept. *)

val add_export_window : t -> from:Asn.t -> to_:Asn.t -> Prefix.t * int * int -> unit
(** Narrow the edge to prefix windows (union with any existing
    windows). *)

val fold_exports : (Asn.t -> Asn.t -> export_abs -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every overridden directed edge, ascending by (from,
    to). *)

val admits : export_abs -> Prefix.t -> bool
(** Does the prefix component admit a route carrying exactly this
    prefix? *)

val default_local_pref : Relationship.t -> int
(** Customer 300, peer 200, provider 100 — prefer-customer defaults
    consistent with {!Peering_topo.Relationship.import_preference}. *)

val local_pref : t -> at:Asn.t -> from:Asn.t -> int option
(** The (possibly overridden) import preference [at] assigns routes
    learned from [from]; [None] if not adjacent. *)

val add_peerlock : t -> at:Asn.t -> protect:Asn.t -> unit
(** [at] filters routes whose path carries [protect] unless learned
    directly from [protect] (NTT Peerlock). *)

val peerlock_protected : t -> Asn.t -> Asn.Set.t

val peerlock_all : t -> Asn.Set.t
(** The union of every protected set — the ASes whose presence on a
    path the analysis must track. *)

val add_peerlock_lite : t -> Asn.t -> unit
val peerlock_lite_at : t -> Asn.t -> bool
val any_peerlock_lite : t -> bool

val tier1s : t -> Asn.Set.t
(** ASes declared with kind [Tier1] — the set Peerlock-lite guards. *)

val add_spec : ?file:string -> t -> Spec.t -> unit
val specs : t -> (string option * Spec.t) list
(** In attachment order. *)

(** {2 Dynamic hooks}

    Adapters plugging the same world into
    {!Peering_topo.Propagation.repair}'s hooks, so the static
    verdicts can be differentially tested against the concrete oracle
    ([@check-diff]): {!dynamic_leak} is the [?leak] hook
    (class-override edges), {!dynamic_export} the [?export_filter]
    (prefix windows), {!dynamic_import} the [?import_filter] (Peerlock
    and Peerlock-lite). *)

val dynamic_leak : t -> Asn.t -> Asn.t -> bool
val dynamic_export : t -> Asn.t -> Asn.t -> Propagation.announcement -> Propagation.route -> bool
val dynamic_import : t -> Asn.t -> from:Asn.t -> Propagation.route -> bool

val parse : string -> (t, Lines.error) result
(** Parse a [.world] file. *)
