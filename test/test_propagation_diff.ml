(* Differential harness for valley-free propagation.

   Two algorithms compute the valley-free table: the three-phase work
   queue [Propagation.propagate], which pushes offers phase by phase,
   and the worklist re-selection of [Propagation.repair]. Started from
   the empty table, repair must build a table byte-identical to
   propagate's — route by route: path, learned_over, ann_index — for
   every seed and world size, including runs exercising [?deny],
   [?export_to], [~down], multi-origin anycast and path poisoning.
   Repair is also held to propagate's tables along seeded down/up
   sequences on a live table, and [Propagation.update] along seeded
   announcement deltas. The seed sweep widens without code
   changes via PROPAGATION_DIFF_SEEDS=<n> (default 10 seeds). *)

open Peering_net
open Peering_topo

let check = Alcotest.check
let tc = Alcotest.test_case

let n_seeds =
  match Sys.getenv_opt "PROPAGATION_DIFF_SEEDS" with
  | None -> 10
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | Some _ | None ->
      invalid_arg "PROPAGATION_DIFF_SEEDS must be a positive integer")

let seeds = List.init n_seeds (fun i -> i + 1)

(* Three world sizes: ~100, ~900 and ~3000 ASes. *)
let sizes =
  [ ( "~100as",
      { Gen.seed = 0;
        n_tier1 = 3;
        n_large_transit = 5;
        n_small_transit = 12;
        n_stub = 75;
        n_content = 5;
        target_prefixes = 150
      } );
    ( "~900as",
      { Gen.seed = 0;
        n_tier1 = 6;
        n_large_transit = 20;
        n_small_transit = 100;
        n_stub = 750;
        n_content = 24;
        target_prefixes = 400
      } );
    ( "~3000as",
      { Gen.seed = 0;
        n_tier1 = 10;
        n_large_transit = 30;
        n_small_transit = 240;
        n_stub = 2670;
        n_content = 50;
        target_prefixes = 600
      } )
  ]

let route_str (rt : Propagation.route) =
  Printf.sprintf "{over=%s; path=[%s]; ann=%d}"
    (match rt.Propagation.learned_over with
    | None -> "origin"
    | Some r -> Relationship.to_string r)
    (String.concat " " (List.map Asn.to_string rt.Propagation.path))
    rt.Propagation.ann_index

(* Full-table equality, with the first diverging ASN in the failure.
   [expected] is propagate's table; [got] is [engine]'s; both as
   {!Propagation.table} lists. *)
let check_tables ~engine ~what expected got =
  let rec cmp = function
    | [], [] -> ()
    | (a, ra) :: _, [] ->
      Alcotest.failf "%s: %s=%s only in the propagate table" what
        (Asn.to_string a) (route_str ra)
    | [], (a, ra) :: _ ->
      Alcotest.failf "%s: %s=%s only in the %s table" what
        (Asn.to_string a) (route_str ra) engine
    | (a, ra) :: rest_a, (b, rb) :: rest_b ->
      if not (Asn.equal a b) then
        Alcotest.failf "%s: holder sets diverge at %s vs %s" what
          (Asn.to_string a) (Asn.to_string b)
      else if ra <> rb then
        Alcotest.failf "%s: %s selected %s by propagate but %s by %s"
          what (Asn.to_string a) (route_str ra) (route_str rb) engine
      else cmp (rest_a, rest_b)
  in
  cmp (expected, got)

(* The announcement workloads differentially tested per world. Each is
   [name, deny, down, announcements]. *)
let scenarios (w : Gen.world) =
  let g = w.Gen.graph in
  let origin = List.hd w.Gen.stubs in
  let p = List.hd (As_graph.prefixes_of g origin) in
  let content = List.hd w.Gen.content in
  let transit1 = List.nth w.Gen.small_transit 1 in
  let transit3 = List.nth w.Gen.small_transit 3 in
  let deny_some asn (_ : Propagation.announcement) = Asn.to_int asn mod 7 = 3 in
  let first_provider = List.hd (As_graph.providers g origin) in
  [ ("plain", None, Asn.Set.empty, [ Propagation.announce origin p ]);
    ("deny", Some deny_some, Asn.Set.empty, [ Propagation.announce origin p ]);
    ( "export-to",
      None,
      Asn.Set.empty,
      [ Propagation.announce ~export_to:(Asn.Set.singleton first_provider)
          origin p
      ] );
    ( "down",
      None,
      Asn.Set.singleton transit1,
      [ Propagation.announce origin p ] );
    ( "anycast",
      None,
      Asn.Set.empty,
      [ Propagation.announce origin p; Propagation.announce content p ] );
    ( "poison",
      None,
      Asn.Set.empty,
      [ Propagation.announce ~path_suffix:[ transit3 ] origin p ] );
    ( "deny+export-to+down",
      Some deny_some,
      Asn.Set.singleton transit1,
      [ Propagation.announce ~export_to:(Asn.Set.of_list (As_graph.providers g origin))
          origin p
      ] )
  ]

(* Repair from the empty table: with every origin also down nothing
   holds a route, and bringing the origins that are not really down
   back up makes repair select every route from scratch. *)
let diff_one_world params seed =
  let w = Gen.generate { params with Gen.seed } in
  let g = w.Gen.graph in
  List.iter
    (fun (name, deny, down, anns) ->
      let origins =
        Asn.Set.of_list (List.map (fun a -> a.Propagation.origin) anns)
      in
      let r =
        Propagation.propagate ?deny ~down:(Asn.Set.union down origins) g anns
      in
      if Propagation.reachable_count r <> 0 then
        Alcotest.failf "seed %d %s: table not empty with every origin down"
          seed name;
      Propagation.repair ?deny ~down g anns r
        ~toggled:(Asn.Set.diff origins down);
      check_tables ~engine:"repair"
        ~what:(Printf.sprintf "seed %d %s" seed name)
        (Propagation.table (Propagation.propagate ?deny ~down g anns))
        (Propagation.table r))
    (scenarios w)

let test_differential params () =
  List.iter (fun seed -> diff_one_world params seed) seeds

(* ------------------------------------------------------------------ *)
(* Incremental repair: from each scenario's table, a seeded sequence of
   down/up steps — single failures of an AS on a live path, restores,
   multi-AS toggles and origin toggles — is applied by repairing one
   table in place; after every step it must equal what propagate
   builds under the new down set. *)

let repair_steps = 24

let toggle set asn =
  if Asn.Set.mem asn set then Asn.Set.remove asn set else Asn.Set.add asn set

(* The ASes flipped at [step]: every sixth step the first origin; every
   third step two or three ASes at once; otherwise one restore of a
   down AS or one failure of a hop on a random holder's path. *)
let pick_toggled rng ~origin ~down ~ases r step =
  let on_path () =
    let from = ases.(Random.State.int rng (Array.length ases)) in
    match Propagation.full_path r from with
    | Some fp -> List.nth fp (Random.State.int rng (List.length fp))
    | None -> from
  in
  if step mod 6 = 5 then Asn.Set.singleton origin
  else if step mod 3 = 2 then
    Asn.Set.of_list (List.init (2 + Random.State.int rng 2) (fun _ -> on_path ()))
  else if (not (Asn.Set.is_empty down)) && Random.State.bool rng then
    let d = Asn.Set.elements down in
    Asn.Set.singleton (List.nth d (Random.State.int rng (List.length d)))
  else Asn.Set.singleton (on_path ())

let repair_one_world params seed =
  let w = Gen.generate { params with Gen.seed } in
  let g = w.Gen.graph in
  let ases = Array.of_list (As_graph.ases g) in
  let changed = ref 0 in
  List.iter
    (fun (name, deny, down, anns) ->
      let rng = Random.State.make [| seed; Hashtbl.hash name |] in
      let origin = (List.hd anns).Propagation.origin in
      let r = Propagation.propagate ?deny ~down g anns in
      let down = ref down in
      for step = 0 to repair_steps - 1 do
        let toggled = pick_toggled rng ~origin ~down:!down ~ases r step in
        down := Asn.Set.fold (fun a s -> toggle s a) toggled !down;
        let before = Propagation.table r in
        Propagation.repair ?deny ~down:!down g anns r ~toggled;
        let what =
          Printf.sprintf "seed %d %s step %d toggling {%s}" seed name step
            (String.concat " " (List.map Asn.to_string (Asn.Set.elements toggled)))
        in
        let got = Propagation.table r in
        check_tables ~engine:"repair" ~what
          (Propagation.table (Propagation.propagate ?deny ~down:!down g anns))
          got;
        if got <> before then incr changed
      done)
    (scenarios w);
  (* Guard against a vacuous sweep: at least a quarter of the steps
     must change the table. *)
  let steps = repair_steps * List.length (scenarios w) in
  if 4 * !changed < steps then
    Alcotest.failf "seed %d: only %d of %d repair steps changed a table" seed
      !changed steps

let test_repair params () =
  List.iter (fun seed -> repair_one_world params seed) seeds

(* ------------------------------------------------------------------ *)
(* Announce deltas: from each scenario's table, a seeded sequence of
   announcement changes — a new origin appended, a slot's export set
   moved between all neighbours and two seeded subsets, a slot's
   suffix changed (poisoning included), a middle slot removed, a
   second announcement tying an existing one at its origin — is
   applied by [Propagation.update] on one live table, under a seeded
   down set and a seeded [deny] on top of the scenario's. After every
   step the table must equal what propagate builds for the current
   list. *)

let delta_steps = 24

(* Drop slot [i] / replace slot [i] with [a]. *)
let remove_nth i l = List.filteri (fun j _ -> j <> i) l
let replace_nth i a l = List.mapi (fun j b -> if j = i then a else b) l

(* The list after step [step]: a function of [rng] and the live table
   [r] (poisoned ASes are drawn from selected paths). *)
let delta_step rng g ~ases r anns step =
  let n = List.length anns in
  let slot = Random.State.int rng n in
  let (cur : Propagation.announcement) = List.nth anns slot in
  let subset () =
    if As_graph.mem g cur.Propagation.origin then
      Some
        (Asn.Set.of_list
           (List.filter_map
              (fun (v, _) -> if Random.State.bool rng then Some v else None)
              (As_graph.neighbors g cur.Propagation.origin)))
    else None
  in
  let any_as () = ases.(Random.State.int rng (Array.length ases)) in
  let on_path () =
    let from = any_as () in
    match Propagation.full_path r from with
    | Some fp -> List.nth fp (Random.State.int rng (List.length fp))
    | None -> from
  in
  let append_new () =
    anns @ [ Propagation.announce (any_as ()) cur.Propagation.prefix ]
  in
  match step mod 5 with
  | 0 -> append_new ()
  | 1 ->
    let export_to =
      match (cur.Propagation.export_to, Random.State.int rng 3) with
      | Some _, 0 -> None
      | None, _ | Some _, _ -> subset ()
    in
    replace_nth slot { cur with Propagation.export_to } anns
  | 2 ->
    let path_suffix =
      match Random.State.int rng 3 with
      | 0 -> []
      | 1 -> [ on_path () ]
      | _ -> [ on_path (); on_path () ]
    in
    replace_nth slot { cur with Propagation.path_suffix } anns
  | 3 when n >= 3 -> remove_nth (1 + Random.State.int rng (n - 2)) anns
  | 3 -> append_new ()
  | _ ->
    (* Same origin and suffix, its own export set: the two tie at the
       origin, where the lower index wins. *)
    anns @ [ { cur with Propagation.export_to = subset () } ]

let delta_one_world params seed =
  let w = Gen.generate { params with Gen.seed } in
  let g = w.Gen.graph in
  let ases = Array.of_list (As_graph.ases g) in
  let changed = ref 0 in
  List.iter
    (fun (name, deny, down, anns) ->
      let rng = Random.State.make [| seed; Hashtbl.hash ("delta", name) |] in
      let down =
        Asn.Set.union down
          (Asn.Set.of_list
             (List.init 3 (fun _ -> ases.(Random.State.int rng (Array.length ases)))))
      in
      (* A seeded set of ASes refuses every announcement. The filter
         does not look at the announcement: propagate, the oracle,
         keeps stale routes when an importer refuses only the
         announcement its neighbour switched to (ROADMAP.md). *)
      let deny asn (a : Propagation.announcement) =
        (match deny with Some f -> f asn a | None -> false)
        || Hashtbl.hash (seed, Asn.to_int asn) mod 13 = 0
      in
      let r = Propagation.propagate ~deny ~down g anns in
      let anns = ref anns and table = ref (Propagation.table r) in
      for step = 0 to delta_steps - 1 do
        let after = delta_step rng g ~ases r !anns step in
        Propagation.update ~deny ~down g ~before:!anns ~after r;
        anns := after;
        let got = Propagation.table r in
        check_tables ~engine:"update"
          ~what:(Printf.sprintf "seed %d %s delta step %d" seed name step)
          (Propagation.table (Propagation.propagate ~deny ~down g after))
          got;
        if got <> !table then incr changed;
        table := got
      done)
    (scenarios w);
  let steps = delta_steps * List.length (scenarios w) in
  if 4 * !changed < steps then
    Alcotest.failf "seed %d: only %d of %d announce delta steps changed a table"
      seed !changed steps

let test_delta params () =
  List.iter (fun seed -> delta_one_world params seed) seeds

(* ------------------------------------------------------------------ *)
(* Structural properties of every adopted table: valley-freeness,
   loop-freeness, origin-termination, catchment accounting, sorted
   accessor output. *)

(* Walking the full path from the selecting AS toward the origin, a
   provider or peer edge must never follow a peer or customer edge —
   Gao–Rexford's no-valley, at-most-one-peak rule. Unlabelled adjacent
   pairs come from poisoned suffixes and end the walk. *)
let valley_free g full_path =
  let rec rels acc = function
    | a :: (b :: _ as rest) -> (
      match As_graph.relationship g a b with
      | Some r -> rels (r :: acc) rest
      | None -> List.rev acc)
    | _ -> List.rev acc
  in
  (* Walking self -> origin the only legal shape is
     Provider* Peer? Customer*. *)
  let rec ok descended = function
    | [] -> true
    | Relationship.Provider :: rest -> (not descended) && ok false rest
    | Relationship.Peer :: rest -> (not descended) && ok true rest
    | Relationship.Customer :: rest -> ok true rest
  in
  ok false (rels [] full_path)

let loop_free full_path =
  let sorted = List.sort Asn.compare full_path in
  let rec no_dup = function
    | a :: (b :: _ as rest) -> (not (Asn.equal a b)) && no_dup rest
    | _ -> true
  in
  no_dup sorted

let rec is_sorted = function
  | a :: (b :: _ as rest) -> Asn.compare a b < 0 && is_sorted rest
  | _ -> true

let check_table_properties ~what g anns r =
  let anns = Array.of_list anns in
  List.iter
    (fun (asn, (rt : Propagation.route)) ->
      let fp = asn :: rt.Propagation.path in
      let ann = anns.(rt.Propagation.ann_index) in
      let suffix_len = List.length ann.Propagation.path_suffix in
      (* Valley-freeness holds for the propagated portion only; the
         poisoned suffix is fake hops past the origin. *)
      let propagated =
        List.filteri (fun i _ -> i < List.length fp - suffix_len) fp
      in
      if not (valley_free g propagated) then
        Alcotest.failf "%s: valley in path at %s: %s" what (Asn.to_string asn)
          (route_str rt);
      if not (loop_free fp) then
        Alcotest.failf "%s: loop in path at %s: %s" what (Asn.to_string asn)
          (route_str rt);
      (* The path must end at the announcement's origin followed by its
         poisoned suffix (if any). *)
      let expected_tail =
        ann.Propagation.origin :: ann.Propagation.path_suffix
      in
      let tail =
        let n = List.length fp in
        List.filteri (fun i _ -> i >= n - suffix_len - 1) fp
      in
      if tail <> expected_tail then
        Alcotest.failf "%s: path at %s does not end at its origin: %s" what
          (Asn.to_string asn) (route_str rt))
    (Propagation.table r);
  let catchment_total =
    List.fold_left (fun acc (_, c) -> acc + c) 0 (Propagation.catchment r)
  in
  check Alcotest.int
    (Printf.sprintf "%s: catchment sums to reachable_count" what)
    (Propagation.reachable_count r)
    catchment_total;
  if not (is_sorted (Propagation.reachable r)) then
    Alcotest.failf "%s: reachable not sorted" what

let test_properties () =
  let params = List.assoc "~900as" sizes in
  List.iter
    (fun seed ->
      let w = Gen.generate { params with Gen.seed } in
      let g = w.Gen.graph in
      List.iter
        (fun (name, deny, down, anns) ->
          let r = Propagation.propagate ?deny ~down g anns in
          check_table_properties
            ~what:(Printf.sprintf "seed %d %s" seed name)
            g anns r;
          let via = List.hd w.Gen.large_transit in
          if not (is_sorted (Propagation.routes_via r via)) then
            Alcotest.failf "seed %d %s: routes_via not sorted" seed name)
        (scenarios w))
    seeds

(* ------------------------------------------------------------------ *)
(* Determinism regression: the engine's queue visit order is
   a function of the inputs alone (queues are seeded in sorted ASN
   order, not Hashtbl.iter order), so two identical runs produce
   identical visit traces. *)

let test_visit_trace_deterministic () =
  let params = List.assoc "~900as" sizes in
  let w = Gen.generate { params with Gen.seed = 42 } in
  let g = w.Gen.graph in
  let origin = List.hd w.Gen.stubs in
  let p = List.hd (As_graph.prefixes_of g origin) in
  let anns =
    [ Propagation.announce origin p;
      Propagation.announce (List.hd w.Gen.content) p
    ]
  in
  let trace () =
    let visits = ref [] in
    let r =
      Propagation.propagate ~visit:(fun a -> visits := a :: !visits) g anns
    in
    (List.rev !visits, r)
  in
  let t1, r1 = trace () in
  let t2, r2 = trace () in
  check Alcotest.bool "trace non-empty" true (t1 <> []);
  check
    Alcotest.(list int)
    "identical visit traces"
    (List.map Asn.to_int t1) (List.map Asn.to_int t2);
  check_tables ~engine:"rerun" ~what:"same-input reruns"
    (Propagation.table r1) (Propagation.table r2)

(* ------------------------------------------------------------------ *)
(* Relationship truth tables and the total-order laws of [better]: the
   valley-free fixpoint is unique, and repair converges to it, only
   because [better] is a strict total order. *)

let all_rels = [ Relationship.Customer; Relationship.Provider; Relationship.Peer ]

let test_invert_truth_table () =
  check Alcotest.bool "invert customer" true
    (Relationship.invert Relationship.Customer = Relationship.Provider);
  check Alcotest.bool "invert provider" true
    (Relationship.invert Relationship.Provider = Relationship.Customer);
  check Alcotest.bool "invert peer" true
    (Relationship.invert Relationship.Peer = Relationship.Peer);
  List.iter
    (fun r ->
      check Alcotest.bool "invert involutive" true
        (Relationship.invert (Relationship.invert r) = r))
    all_rels

let test_exports_to_truth_table () =
  let expect learned_from to_rel =
    match (learned_from, to_rel) with
    (* own routes and customer routes export everywhere *)
    | None, _ | Some Relationship.Customer, _ -> true
    (* peer and provider routes export only to customers *)
    | (Some Relationship.Peer | Some Relationship.Provider), to_rel ->
      to_rel = Relationship.Customer
  in
  List.iter
    (fun learned_from ->
      List.iter
        (fun to_rel ->
          check Alcotest.bool
            (Printf.sprintf "exports_to %s -> %s"
               (match learned_from with
               | None -> "origin"
               | Some r -> Relationship.to_string r)
               (Relationship.to_string to_rel))
            (expect learned_from to_rel)
            (Relationship.exports_to ~learned_from to_rel))
        all_rels)
    (None :: List.map Option.some all_rels)

let test_class_pref () =
  check Alcotest.int "origin" 3 (Propagation.class_pref None);
  check Alcotest.int "customer" 2
    (Propagation.class_pref (Some Relationship.Customer));
  check Alcotest.int "peer" 1 (Propagation.class_pref (Some Relationship.Peer));
  check Alcotest.int "provider" 0
    (Propagation.class_pref (Some Relationship.Provider))

let route_arb =
  QCheck.make
    ~print:(fun r -> route_str r)
    QCheck.Gen.(
      map3
        (fun cls path idx ->
          { Propagation.learned_over = cls;
            path = List.map Asn.of_int path;
            ann_index = idx
          })
        (oneofl (None :: List.map Option.some all_rels))
        (list_size (int_range 0 4) (int_range 1 30))
        (int_range 0 3))

(* The sort key [better] compares on: full route content. Equal keys
   mean the routes are indistinguishable to the comparator, so the
   totality law is stated modulo the key. *)
let key (r : Propagation.route) =
  ( Propagation.class_pref r.Propagation.learned_over,
    List.map Asn.to_int r.Propagation.path,
    r.Propagation.ann_index )

let prop_better_irreflexive =
  QCheck.Test.make ~name:"better is irreflexive" ~count:200 route_arb
    (fun r -> not (Propagation.better r r))

let prop_better_antisymmetric =
  QCheck.Test.make ~name:"better is antisymmetric" ~count:500
    (QCheck.pair route_arb route_arb)
    (fun (a, b) -> not (Propagation.better a b && Propagation.better b a))

let prop_better_total =
  QCheck.Test.make ~name:"better is total on distinct keys" ~count:500
    (QCheck.pair route_arb route_arb)
    (fun (a, b) ->
      key a = key b || Propagation.better a b || Propagation.better b a)

let prop_better_transitive =
  QCheck.Test.make ~name:"better is transitive" ~count:1000
    (QCheck.triple route_arb route_arb route_arb)
    (fun (a, b, c) ->
      (not (Propagation.better a b && Propagation.better b c))
      || Propagation.better a c)

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf
    "propagation-diff: %d seeds (set PROPAGATION_DIFF_SEEDS to widen)\n%!"
    n_seeds;
  Alcotest.run "propagation-diff"
    [ ( "differential",
        List.map
          (fun (label, params) ->
            tc (Printf.sprintf "phased = repair from empty (%s)" label) `Quick
              (test_differential params))
          sizes );
      ( "repair",
        List.map
          (fun (label, params) ->
            tc (Printf.sprintf "repair = full propagation (%s)" label) `Quick
              (test_repair params))
          sizes );
      ( "delta",
        List.map
          (fun (label, params) ->
            tc (Printf.sprintf "update = full propagation (%s)" label) `Quick
              (test_delta params))
          sizes );
      ( "properties",
        [ tc "valley-free, loop-free, origin-terminated, accounted" `Quick
            test_properties
        ] );
      ( "determinism",
        [ tc "visit trace identical across reruns" `Quick
            test_visit_trace_deterministic
        ] );
      ( "order-laws",
        [ tc "invert truth table" `Quick test_invert_truth_table;
          tc "exports_to truth table" `Quick test_exports_to_truth_table;
          tc "class_pref values" `Quick test_class_pref;
          QCheck_alcotest.to_alcotest prop_better_irreflexive;
          QCheck_alcotest.to_alcotest prop_better_antisymmetric;
          QCheck_alcotest.to_alcotest prop_better_total;
          QCheck_alcotest.to_alcotest prop_better_transitive
        ] )
    ]
