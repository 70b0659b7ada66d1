open Peering_net
open Peering_topo

type export_classes = Gr_only | Any_class

type export_prefixes =
  | Any_prefix
  | Windows of (Prefix.t * int * int) list
  | No_prefix

type export_abs = { classes : export_classes; prefixes : export_prefixes }

let default_export = { classes = Gr_only; prefixes = Any_prefix }
let permit_all_export = { classes = Any_class; prefixes = Any_prefix }

type t = {
  graph : As_graph.t;
  mutable exports : export_abs Asn.Map.t Asn.Map.t;  (* u -> v -> abs *)
  mutable local_prefs : int Asn.Map.t Asn.Map.t;  (* at -> from -> pref *)
  mutable peerlock : Asn.Set.t Asn.Map.t;  (* at -> protected ASes *)
  mutable peerlock_lite : Asn.Set.t;
  mutable specs : (string option * Spec.t) list;  (* reversed *)
}

let of_graph graph =
  { graph;
    exports = Asn.Map.empty;
    local_prefs = Asn.Map.empty;
    peerlock = Asn.Map.empty;
    peerlock_lite = Asn.Set.empty;
    specs = []
  }

let graph w = w.graph

(* ------------------------------------------------------------------ *)
(* Export abstractions. *)

let export_at w u v =
  match Asn.Map.find_opt u w.exports with
  | None -> default_export
  | Some m -> Option.value (Asn.Map.find_opt v m) ~default:default_export

let set_export w ~from ~to_ abs =
  let m = Option.value (Asn.Map.find_opt from w.exports) ~default:Asn.Map.empty in
  w.exports <- Asn.Map.add from (Asn.Map.add to_ abs m) w.exports

let inject_leak w ~from ~to_ =
  let cur = export_at w from to_ in
  set_export w ~from ~to_ { cur with classes = Any_class }

let add_export_window w ~from ~to_ window =
  let cur = export_at w from to_ in
  let prefixes =
    match cur.prefixes with
    | Any_prefix | No_prefix -> Windows [ window ]
    | Windows ws -> Windows (ws @ [ window ])
  in
  set_export w ~from ~to_ { cur with prefixes }

let fold_exports f w acc =
  Asn.Map.fold
    (fun u m acc -> Asn.Map.fold (fun v abs acc -> f u v abs acc) m acc)
    w.exports acc

(* Does the prefix component admit a route carrying exactly [p]? *)
let admits abs p =
  match abs.prefixes with
  | Any_prefix -> true
  | No_prefix -> false
  | Windows ws -> List.exists (fun t -> Policy_checks.exact_in_triple p t) ws

(* ------------------------------------------------------------------ *)
(* Import preferences (stability analysis input). *)

let default_local_pref = function
  | Relationship.Customer -> 300
  | Relationship.Peer -> 200
  | Relationship.Provider -> 100

let local_pref w ~at ~from =
  match
    Option.bind (Asn.Map.find_opt at w.local_prefs) (Asn.Map.find_opt from)
  with
  | Some lp -> Some lp
  | None ->
    Option.map default_local_pref (As_graph.relationship w.graph at from)

let set_local_pref w ~at ~from pref =
  let m =
    Option.value (Asn.Map.find_opt at w.local_prefs) ~default:Asn.Map.empty
  in
  w.local_prefs <- Asn.Map.add at (Asn.Map.add from pref m) w.local_prefs

(* ------------------------------------------------------------------ *)
(* Peerlock. *)

let add_peerlock w ~at ~protect =
  let cur = Option.value (Asn.Map.find_opt at w.peerlock) ~default:Asn.Set.empty in
  w.peerlock <- Asn.Map.add at (Asn.Set.add protect cur) w.peerlock

let peerlock_protected w at =
  Option.value (Asn.Map.find_opt at w.peerlock) ~default:Asn.Set.empty

let peerlock_all w =
  Asn.Map.fold (fun _ s acc -> Asn.Set.union s acc) w.peerlock Asn.Set.empty

let add_peerlock_lite w at = w.peerlock_lite <- Asn.Set.add at w.peerlock_lite
let peerlock_lite_at w at = Asn.Set.mem at w.peerlock_lite
let any_peerlock_lite w = not (Asn.Set.is_empty w.peerlock_lite)

let tier1s w =
  List.fold_left
    (fun acc asn ->
      match As_graph.node w.graph asn with
      | Some n when n.As_graph.kind = As_graph.Tier1 -> Asn.Set.add asn acc
      | _ -> acc)
    Asn.Set.empty (As_graph.ases w.graph)

(* ------------------------------------------------------------------ *)
(* Specs. *)

let add_spec ?file w spec = w.specs <- (file, spec) :: w.specs
let specs w = List.rev w.specs

(* ------------------------------------------------------------------ *)
(* Dynamic hooks: the same world driving [Propagation.repair]'s hooks,
   so static verdicts are differentially testable against the concrete
   oracle. *)

let dynamic_leak w u v = (export_at w u v).classes = Any_class

let dynamic_export w u v (ann : Propagation.announcement)
    (_ : Propagation.route) =
  admits (export_at w u v) ann.Propagation.prefix

let dynamic_import w v ~from (r : Propagation.route) =
  let path = r.Propagation.path in
  let blocked_by_peerlock =
    Asn.Set.exists
      (fun t -> (not (Asn.equal t from)) && List.exists (Asn.equal t) path)
      (peerlock_protected w v)
  in
  let blocked_by_lite =
    peerlock_lite_at w v
    && (match r.Propagation.learned_over with
       | Some (Relationship.Customer | Relationship.Peer) -> true
       | _ -> false)
    && Asn.Set.exists
         (fun t -> (not (Asn.equal t from)) && List.exists (Asn.equal t) path)
         (tier1s w)
  in
  not (blocked_by_peerlock || blocked_by_lite)

(* ------------------------------------------------------------------ *)
(* The .world file format (see the .mli for the grammar). *)

let kind = function
  | "tier1" -> As_graph.Tier1
  | "large-transit" -> As_graph.Large_transit
  | "small-transit" -> As_graph.Small_transit
  | "stub" -> As_graph.Stub
  | "content" -> As_graph.Content
  | "enterprise" -> As_graph.Enterprise
  | s -> Lines.fail (Printf.sprintf "unknown kind %S" s)

let rel = function
  | "customer" -> Relationship.Customer
  | "provider" -> Relationship.Provider
  | "peer" -> Relationship.Peer
  | s -> Lines.fail (Printf.sprintf "unknown relationship %S" s)

let known w a =
  let asn = Lines.asn a in
  if not (As_graph.mem w.graph asn) then
    Lines.fail (Printf.sprintf "undeclared %s" (Asn.to_string asn));
  asn

let adjacent w u v =
  if As_graph.relationship w.graph u v = None then
    Lines.fail
      (Printf.sprintf "no edge between %s and %s" (Asn.to_string u)
         (Asn.to_string v))

(* A window must be non-empty and lie within /32. *)
let window p ge le =
  let p = Lines.prefix p in
  let ge = Lines.int ge and le = Lines.int le in
  if ge < 0 || ge > le || le > 32 then
    Lines.fail
      (Printf.sprintf "bad prefix window %d..%d (need 0 <= ge <= le <= 32)"
         ge le);
  (p, ge, le)

let handle_line w _ = function
  | Lines.Separator -> ()
  | Lines.Stmt { toks; _ } -> (
    match toks with
    | "as" :: a :: rest ->
      let asn = Lines.asn a in
      if As_graph.mem w.graph asn then
        Lines.fail (Printf.sprintf "duplicate %s" (Asn.to_string asn));
      let kind =
        match rest with
        | [] -> As_graph.Stub
        | [ k ] -> kind k
        | _ -> Lines.fail "expected 'as <asn> [kind]'"
      in
      As_graph.add_as w.graph ~kind asn
    | [ "edge"; a; r; b ] ->
      let a = known w a in
      let b = known w b in
      if Asn.equal a b then Lines.fail "self edge";
      if As_graph.relationship w.graph a b <> None then
        Lines.fail "duplicate edge";
      As_graph.add_edge w.graph a (rel r) b
    | [ "originate"; a; p ] ->
      let asn = known w a in
      As_graph.originate w.graph asn (Lines.prefix p)
    | "export" :: u :: v :: rest -> (
      let u = known w u in
      let v = known w v in
      adjacent w u v;
      match rest with
      | [ "permit-all" ] -> set_export w ~from:u ~to_:v permit_all_export
      | [ "none" ] ->
        set_export w ~from:u ~to_:v
          { (export_at w u v) with prefixes = No_prefix }
      | [ "prefix"; p ] ->
        let p = Lines.prefix p in
        add_export_window w ~from:u ~to_:v (p, Prefix.len p, Prefix.len p)
      | [ "prefix"; p; ge; le ] ->
        add_export_window w ~from:u ~to_:v (window p ge le)
      | _ ->
        Lines.fail
          "expected 'permit-all', 'none' or 'prefix <cidr> [<ge> <le>]'")
    | [ "leak"; u; v ] ->
      let u = known w u in
      let v = known w v in
      adjacent w u v;
      inject_leak w ~from:u ~to_:v
    | [ "local-pref"; at; from; n ] ->
      let at = known w at in
      let from = known w from in
      adjacent w at from;
      set_local_pref w ~at ~from (Lines.int n)
    | [ "peerlock"; at; t ] ->
      let at = known w at in
      let t = known w t in
      add_peerlock w ~at ~protect:t
    | [ "peerlock-lite"; at ] -> add_peerlock_lite w (known w at)
    | [] -> ()
    | kw :: _ -> Lines.fail (Printf.sprintf "unknown statement %S" kw))

let parse text =
  let w = of_graph (As_graph.create ()) in
  Lines.read (handle_line w) (fun () -> w) text
