open Peering_net
open Peering_topo
module Metrics = Peering_obs.Metrics

let c_edge = "LEAK-EDGE"
let c_reach = "LEAK-REACH"

let m_iterations =
  Metrics.counter ~help:"Work-queue pops in the static leak fixpoint"
    "check.leak.fixpoint_iterations"

(* ------------------------------------------------------------------ *)
(* The abstract fixpoint. Per-AS state:

   - [classes]: a MAY bit-set of import classes the AS can hold the
     route under (origin / customer / peer / provider) — union join.
   - [must]: the MUST set of tracked ASes (Peerlock-protected plus,
     when anyone runs Peerlock-lite, the tier-1s) present on *every*
     abstract path reaching this AS — intersection join. Peerlock can
     only be modelled with must-information: blocking on a
     may-traversed AS would prune paths the concrete world still has
     (a false negative).
   - [taint]: MAY the AS hold a route that crossed a Gao–Rexford-
     violating export — set when a transfer's class is admitted by an
     [Any_class] override but not by [Relationship.exports_to], and
     propagated with the route thereafter.

   Every abstract transfer over-approximates the concrete engine
   ([Propagation.repair] driven by [World.dynamic_*] hooks, settled or
   stopped at its budget): loops and [deny] are ignored, prefix windows are evaluated
   on the same announcement prefix, and import filters block only on
   must-information. Hence concretely-reachable ⊆ [reachable] and
   concretely-polluted ⊆ [tainted] — zero false negatives, the
   property [@check-diff] tests. The false-positive rate (mostly from
   ignoring loop suppression and path-length selection) is measured
   there, not bounded here. *)

type verdict = {
  reachable : Asn.Set.t;
  tainted : Asn.Set.t;
  iterations : int;
}

type state = {
  mutable classes : int;
  mutable must : Asn.Set.t;
  mutable taint : bool;
}

let bit_of_class = function
  | None -> 1
  | Some Relationship.Customer -> 2
  | Some Relationship.Peer -> 4
  | Some Relationship.Provider -> 8

let all_classes =
  [ None;
    Some Relationship.Customer;
    Some Relationship.Peer;
    Some Relationship.Provider
  ]

let analyze w (ann : Propagation.announcement) =
  let g = World.graph w in
  let origin = ann.Propagation.origin in
  if not (As_graph.mem g origin) then
    { reachable = Asn.Set.empty; tainted = Asn.Set.empty; iterations = 0 }
  else begin
    let tier1 = World.tier1s w in
    let relevant =
      let base = World.peerlock_all w in
      if World.any_peerlock_lite w then Asn.Set.union base tier1 else base
    in
    let states : (int, state) Hashtbl.t = Hashtbl.create 256 in
    let state asn =
      match Hashtbl.find_opt states (Asn.to_int asn) with
      | Some s -> s
      | None ->
        let s = { classes = 0; must = Asn.Set.empty; taint = false } in
        Hashtbl.replace states (Asn.to_int asn) s;
        s
    in
    let iterations = ref 0 in
    let queue = Queue.create () in
    let s0 = state origin in
    s0.classes <- bit_of_class None;
    s0.must <-
      Asn.Set.inter relevant
        (Asn.Set.of_list (origin :: ann.Propagation.path_suffix));
    Queue.push origin queue;
    while not (Queue.is_empty queue) do
      incr iterations;
      let u = Queue.pop queue in
      let su = state u in
      List.iter
        (fun (v, rel_uv) ->
          let abs = World.export_at w u v in
          if World.admits w abs ann.Propagation.prefix then begin
            let sv = state v in
            let first = sv.classes = 0 in
            let changed = ref false in
            (* u's full path excluding the next hop [u] itself, as the
               importer's "unless learned directly from" carve-out
               sees it. *)
            let path_must = Asn.Set.remove u su.must in
            let import_class = Relationship.invert rel_uv in
            let blocked_by_peerlock =
              not
                (Asn.Set.is_empty
                   (Asn.Set.inter (World.peerlock_protected w v) path_must))
            in
            let blocked_by_lite =
              World.peerlock_lite_at w v
              && (import_class = Relationship.Customer
                 || import_class = Relationship.Peer)
              && not (Asn.Set.is_empty (Asn.Set.inter tier1 path_must))
            in
            if not (blocked_by_peerlock || blocked_by_lite) then
              List.iter
                (fun cls ->
                  if su.classes land bit_of_class cls <> 0 then begin
                    let gr =
                      Relationship.exports_to ~learned_from:cls rel_uv
                    in
                    let class_ok =
                      gr || abs.World.classes = World.Any_class
                    in
                    let blocked_by_selective =
                      cls = None
                      &&
                      match ann.Propagation.export_to with
                      | Some allowed -> not (Asn.Set.mem v allowed)
                      | None -> false
                    in
                    if class_ok && not blocked_by_selective then begin
                      let ibit = bit_of_class (Some import_class) in
                      if sv.classes land ibit = 0 then begin
                        sv.classes <- sv.classes lor ibit;
                        changed := true
                      end;
                      if (su.taint || not gr) && not sv.taint then begin
                        sv.taint <- true;
                        changed := true
                      end;
                      let cand_must =
                        Asn.Set.inter relevant (Asn.Set.add v su.must)
                      in
                      let new_must =
                        if first then cand_must
                        else Asn.Set.inter sv.must cand_must
                      in
                      if not (Asn.Set.equal new_must sv.must) then begin
                        sv.must <- new_must;
                        changed := true
                      end
                    end
                  end)
                all_classes;
            if !changed then Queue.push v queue
          end)
        (As_graph.neighbors g u)
    done;
    Metrics.Counter.add m_iterations !iterations;
    let reachable, tainted =
      Hashtbl.fold
        (fun asn s (r, t) ->
          if s.classes = 0 then (r, t)
          else
            let a = Asn.of_int asn in
            (Asn.Set.add a r, if s.taint then Asn.Set.add a t else t))
        states
        (Asn.Set.empty, Asn.Set.empty)
    in
    { reachable; tainted; iterations = !iterations }
  end

(* ------------------------------------------------------------------ *)
(* Passes. A directed edge is leak-prone when its override admits
   classes beyond Gao–Rexford towards a provider or peer AND its
   prefix window admits some prefix originated outside the exporter's
   customer cone — own and cone routes are legitimate exports, so a
   permit-all edge whose windows stay inside the cone is safe. The
   witness is the first such prefix in prefix order. *)

let leak_prone w =
  let g = World.graph w in
  World.fold_exports
    (fun u v abs acc ->
      if abs.World.classes <> World.Any_class then acc
      else
        match As_graph.relationship g u v with
        | Some ((Relationship.Provider | Relationship.Peer) as rel) ->
          let cone = Customer_cone.cone g u in
          let witness = ref None in
          As_graph.iter_prefixes
            (fun o p ->
              if
                !witness = None
                && (not (Asn.Set.mem o cone))
                && World.admits w abs p
              then witness := Some (o, p))
            g;
          (match !witness with
          | Some (o, p) -> (u, v, rel, o, p) :: acc
          | None -> acc)
        | _ -> acc)
    w []
  |> List.rev

let edges w =
  List.map
    (fun (u, v, rel, o, p) ->
      Diagnostic.error ~code:c_edge
        ~hint:
          "window the export to the AS's customer cone or drop the \
           permit-all override"
        (Printf.sprintf
           "%s may export beyond Gao-Rexford discipline to its %s %s: \
            e.g. %s (originated by %s, outside its customer cone) would \
            leak"
           (Asn.to_string u)
           (Relationship.to_string rel)
           (Asn.to_string v) (Prefix.to_string p) (Asn.to_string o)))
    (leak_prone w)

let reach w =
  let total = As_graph.n_ases (World.graph w) in
  List.map
    (fun (u, v, _rel, o, p) ->
      let verdict = analyze w (Propagation.announce o p) in
      let n = Asn.Set.cardinal verdict.tainted in
      Diagnostic.warning ~code:c_reach
        ~hint:
          "deploy Peerlock on the transit path or window the export to \
           contain the blast radius"
        (Printf.sprintf
           "a route for %s leaked across %s -> %s can pollute %d of %d ASes \
            (%.1f%%)"
           (Prefix.to_string p) (Asn.to_string u) (Asn.to_string v) n total
           (if total = 0 then 0.0
            else 100.0 *. float_of_int n /. float_of_int total)))
    (leak_prone w)
