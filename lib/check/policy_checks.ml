open Peering_net
open Peering_bgp
open Peering_topo

let c_unsat = "POLICY-UNSAT"
let c_dead = "POLICY-DEAD"
let c_leak = "POLICY-LEAK"

type af = V4 | V6

let max_prefix_len = function V4 -> 32 | V6 -> 128

type input = {
  pol_name : string option;
  pol_relationship : Relationship.t option;
  pol_af : af;
  policy : Policy.t;
}

let input ?name ?relationship ?(af = V4) policy =
  { pol_name = name; pol_relationship = relationship; pol_af = af; policy }

let label i =
  match i.pol_name with None -> "policy" | Some n -> "policy " ^ n

(* ------------------------------------------------------------------ *)
(* Satisfiability. All verdicts are conservative: [triple_window]
   under-approximates nothing; [cond_unsat c = true] implies no route
   satisfies [c]; [cond_taut c = true] implies every route does. The
   address family decides the maximum route-prefix length a ge/le
   window is clamped to (32 for IPv4, 128 for MP-BGP IPv6). *)

(* The set of route-prefix lengths a (p, ge, le) triple can match. *)
let window af (p, ge, le) =
  (max ge (Prefix.len p), min le (max_prefix_len af))

let empty_triple af t =
  let lo, hi = window af t in
  lo > hi

(* Can triples from two Prefix_in conditions match a common route? *)
let compatible_triples af ((p1, _, _) as t1) ((p2, _, _) as t2) =
  let lo1, hi1 = window af t1 and lo2, hi2 = window af t2 in
  Prefix.overlaps p1 p2 && max lo1 lo2 <= min hi1 hi2

let exact_in af p ((q, _, _) as t) =
  let lo, hi = window af t in
  Prefix.subsumes q p && Prefix.len p >= lo && Prefix.len p <= hi

let rec unsat af (c : Policy.cond) =
  match c with
  | Policy.Prefix_in l -> List.for_all (empty_triple af) l
  | Policy.Prefix_exact [] -> true
  | Policy.Any cs -> List.for_all (unsat af) cs
  | Policy.All cs -> List.exists (unsat af) cs || contradiction af cs
  | Policy.Not c -> taut af c
  | Policy.Prefix_exact _ | Policy.Path_contains _ | Policy.Originated_by _
  | Policy.Neighbor_is _ | Policy.Has_community _ | Policy.Path_length_le _
  | Policy.Has_private_asn ->
    false

and taut af (c : Policy.cond) =
  match c with
  | Policy.All cs -> List.for_all (taut af) cs
  | Policy.Any cs -> List.exists (taut af) cs
  | Policy.Not c -> unsat af c
  | Policy.Prefix_in l ->
    List.exists
      (fun ((p, _, _) as t) ->
        let lo, hi = window af t in
        Prefix.len p = 0 && lo = 0 && hi = max_prefix_len af)
      l
  | Policy.Path_length_le _ | Policy.Prefix_exact _ | Policy.Path_contains _
  | Policy.Originated_by _ | Policy.Neighbor_is _ | Policy.Has_community _
  | Policy.Has_private_asn ->
    false

(* A conjunction is contradictory if it contains [c] and [Not c]
   structurally, or two prefix constraints with disjoint route sets. *)
and contradiction af cs =
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
      (fun c ->
        match c with
        | Policy.Prefix_in l -> Some (`In l)
        | Policy.Prefix_exact l -> Some (`Exact l)
        | _ -> None)
      members
  in
  let disjoint a b =
    match (a, b) with
    | `In l1, `In l2 ->
      not
        (List.exists
           (fun t1 -> List.exists (compatible_triples af t1) l2)
           l1)
    | `In l, `Exact e | `Exact e, `In l ->
      not (List.exists (fun p -> List.exists (exact_in af p) l) e)
    | `Exact e1, `Exact e2 ->
      not (List.exists (fun p -> List.exists (Prefix.equal p) e2) e1)
  in
  let rec pairs = function
    | [] -> false
    | a :: rest -> List.exists (disjoint a) rest || pairs rest
  in
  pairs prefix_sets

let triple_window ?(af = V4) t = window af t
let exact_in_triple ?(af = V4) p t = exact_in af p t
let cond_unsat ?(af = V4) c = unsat af c
let cond_taut ?(af = V4) c = taut af c
let conds_unsat ?(af = V4) conds = unsat af (Policy.All conds)
let conds_taut ?(af = V4) conds = List.for_all (taut af) conds

(* ------------------------------------------------------------------ *)

let unsatisfiable_entries i =
  let af = i.pol_af in
  List.filter_map
    (fun (e : Policy.entry) ->
      if conds_unsat ~af e.Policy.conds then
        Some
          (Diagnostic.warning ~code:c_unsat
             ~hint:"delete the entry or fix the contradictory conditions"
             (Printf.sprintf
                "%s entry seq %d can never match: its condition set is \
                 unsatisfiable"
                (label i) e.Policy.seq))
      else None)
    (Policy.entries i.policy)

let dead_entries i =
  let af = i.pol_af in
  (* Entries whose conditions are unsatisfiable never shadow anything
     and are reported by [unsatisfiable_entries] instead. *)
  let live =
    List.filter
      (fun (e : Policy.entry) -> not (conds_unsat ~af e.Policy.conds))
      (Policy.entries i.policy)
  in
  let rec go earlier acc = function
    | [] -> List.rev acc
    | (e : Policy.entry) :: rest ->
      let shadow =
        List.find_opt
          (fun (prev : Policy.entry) ->
            conds_taut ~af prev.Policy.conds
            || prev.Policy.conds = e.Policy.conds)
          (List.rev earlier)
      in
      let acc =
        match shadow with
        | None -> acc
        | Some prev ->
          Diagnostic.warning ~code:c_dead
            ~hint:
              (Printf.sprintf "remove entry seq %d or reorder it before seq %d"
                 e.Policy.seq prev.Policy.seq)
            (Printf.sprintf
               "%s entry seq %d is dead: entry seq %d already decides every \
                route it matches"
               (label i) e.Policy.seq prev.Policy.seq)
          :: acc
      in
      go (e :: earlier) acc rest
  in
  go [] [] live

(* A policy "permits all" when, after dropping unsatisfiable entries,
   the first entry is a Permit whose conditions hold for every
   route. *)
let permits_all ?(af = V4) policy =
  let live =
    List.filter
      (fun (e : Policy.entry) -> not (conds_unsat ~af e.Policy.conds))
      (Policy.entries policy)
  in
  match live with
  | (e : Policy.entry) :: _ ->
    e.Policy.decision = Policy.Permit && conds_taut ~af e.Policy.conds
  | [] -> false

let export_leaks i =
  match i.pol_relationship with
  | Some (Relationship.Provider | Relationship.Peer)
    when permits_all ~af:i.pol_af i.policy ->
    let rel =
      match i.pol_relationship with
      | Some r -> Relationship.to_string r
      | None -> assert false
    in
    [ Diagnostic.error ~code:c_leak
        ~hint:
          "export only own and customer routes on provider/peer sessions \
           (match on a prefix-list or community)"
        (Printf.sprintf
           "%s permits every route towards a %s: provider/peer-learned \
            routes would leak (Gao-Rexford violation)"
           (label i) rel)
    ]
  | _ -> []
