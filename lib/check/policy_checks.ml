open Peering_net
open Peering_bgp
open Peering_topo

let c_unsat = "POLICY-UNSAT"
let c_leak = "POLICY-LEAK"
let c_rtmap_shadow = "RTMAP-SHADOW"

type input = {
  pol_name : string option;
  pol_relationship : Relationship.t option;
  pol_line : int option;
  pol_entry_lines : (int * int) list;
  policy : Policy.t;
}

let input ?name ?relationship policy =
  { pol_name = name;
    pol_relationship = relationship;
    pol_line = None;
    pol_entry_lines = [];
    policy
  }

let entry_line i seq = List.assoc_opt seq i.pol_entry_lines

let label i =
  match i.pol_name with None -> "policy" | Some n -> "policy " ^ n

(* ------------------------------------------------------------------ *)
(* Satisfiability. All verdicts are conservative: [window]
   under-approximates nothing; [unsat c = true] implies no route
   satisfies [c]; [taut c = true] implies every route does. Routes
   carry IPv4 prefixes, so a ge/le window is clamped to /32. *)

(* The set of route-prefix lengths a (p, ge, le) triple can match. *)
let window (p, ge, le) = (max ge (Prefix.len p), min le 32)

let empty_triple t =
  let lo, hi = window t in
  lo > hi

(* Can triples from two Prefix_in conditions match a common route? *)
let compatible_triples ((p1, _, _) as t1) ((p2, _, _) as t2) =
  let lo1, hi1 = window t1 and lo2, hi2 = window t2 in
  Prefix.overlaps p1 p2 && max lo1 lo2 <= min hi1 hi2

let exact_in_triple p ((q, _, _) as t) =
  let lo, hi = window t in
  Prefix.subsumes q p && Prefix.len p >= lo && Prefix.len p <= hi

let rec unsat (c : Policy.cond) =
  match c with
  | Policy.Prefix_in l -> List.for_all empty_triple l
  | Policy.Any cs -> List.for_all unsat cs
  | Policy.All cs -> List.exists unsat cs || contradiction cs
  | Policy.Not c -> taut c
  | Policy.Path_contains _ | Policy.Has_community _ -> false

and taut (c : Policy.cond) =
  match c with
  | Policy.All cs -> List.for_all taut cs
  | Policy.Any cs -> List.exists taut cs
  | Policy.Not c -> unsat c
  | Policy.Prefix_in l ->
    List.exists
      (fun ((p, _, _) as t) ->
        let lo, hi = window t in
        Prefix.len p = 0 && lo = 0 && hi = 32)
      l
  | Policy.Path_contains _ | Policy.Has_community _ -> false

(* A conjunction is contradictory if it contains [c] and [Not c]
   structurally, or two prefix constraints with disjoint route sets. *)
and contradiction cs =
  let rec flatten acc = function
    | Policy.All cs' :: rest -> flatten (flatten acc cs') rest
    | c :: rest -> flatten (c :: acc) rest
    | [] -> acc
  in
  let members = flatten [] cs in
  let negated =
    List.exists
      (fun c ->
        match c with
        | Policy.Not inner -> List.exists (fun d -> d = inner) members
        | _ -> false)
      members
  in
  negated
  ||
  let prefix_sets =
    List.filter_map
      (fun c -> match c with Policy.Prefix_in l -> Some l | _ -> None)
      members
  in
  let disjoint l1 l2 =
    not (List.exists (fun t1 -> List.exists (compatible_triples t1) l2) l1)
  in
  let rec pairs = function
    | [] -> false
    | a :: rest -> List.exists (disjoint a) rest || pairs rest
  in
  pairs prefix_sets

let conds_unsat conds = unsat (Policy.All conds)
let conds_taut conds = List.for_all taut conds

(* ------------------------------------------------------------------ *)

let unsatisfiable_entries i =
  List.filter_map
    (fun (e : Policy.entry) ->
      if conds_unsat e.Policy.conds then
        Some
          (Diagnostic.warning ~code:c_unsat ?line:(entry_line i e.Policy.seq)
             ~hint:"delete the entry or fix the contradictory conditions"
             (Printf.sprintf
                "%s entry seq %d can never match: its condition set is \
                 unsatisfiable"
                (label i) e.Policy.seq))
      else None)
    (Policy.entries i.policy)

(* The entries whose conditions some route satisfies. *)
let live policy =
  List.filter
    (fun (e : Policy.entry) -> not (conds_unsat e.Policy.conds))
    (Policy.entries policy)

(* A policy "permits all" when, after dropping unsatisfiable entries,
   the first entry is a Permit whose conditions hold for every
   route. *)
let permits_all policy =
  match live policy with
  | (e : Policy.entry) :: _ ->
    e.Policy.decision = Policy.Permit && conds_taut e.Policy.conds
  | [] -> false

let export_leaks i =
  match i.pol_relationship with
  | Some (Relationship.Provider | Relationship.Peer)
    when permits_all i.policy ->
    let rel =
      match i.pol_relationship with
      | Some r -> Relationship.to_string r
      | None -> assert false
    in
    [ Diagnostic.error ~code:c_leak ?line:i.pol_line
        ~hint:
          "export only own and customer routes on provider/peer sessions \
           (match on a prefix-list or community)"
        (Printf.sprintf
           "%s permits every route towards a %s: provider/peer-learned \
            routes would leak (Gao-Rexford violation)"
           (label i) rel)
    ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Entry shadowing: entries are evaluated in seq order and the first
   whose matches all hold decides, so an entry is unreachable when an
   earlier entry matches every route it matches: the earlier entry's
   conditions hold for every route (no match at all, or a prefix-list
   such as 0.0.0.0/0 le 32), or they are a subset of this entry's. An
   entry whose conditions are unsatisfiable matches nothing, so it
   shadows nothing and is POLICY-UNSAT's to report. *)

let shadows (prev : Policy.entry) (e : Policy.entry) =
  conds_taut prev.conds || List.for_all (fun c -> List.mem c e.conds) prev.conds

let shadowed_entries i =
  let name = Option.value i.pol_name ~default:"" in
  let rec go earlier acc = function
    | [] -> List.rev acc
    | (e : Policy.entry) :: rest ->
      let acc =
        match List.find_opt (fun p -> shadows p e) (List.rev earlier) with
        | None -> acc
        | Some prev ->
          Diagnostic.warning ~code:c_rtmap_shadow ?line:(entry_line i e.seq)
            ~hint:
              (Printf.sprintf "reorder the entries or tighten seq %d's matches"
                 prev.seq)
            (Printf.sprintf
               "route-map %s seq %d is unreachable: every route it matches \
                is already matched by seq %d"
               name e.seq prev.seq)
          :: acc
      in
      go (e :: earlier) acc rest
  in
  go [] [] (live i.policy)
