(* @sched-isolation: seeded property harness for the multi-tenant
   scheduler.

   For every seed the harness builds a reduced-size testbed, admits a
   randomized batch of tenant proposals in a seed-dependent order, and
   checks the scheduler's three isolation guarantees:

   1. No two admitted experiments ever hold overlapping prefixes, and
      the scheduler's own runtime oracle agrees
      ([isolation_violations = 0]).
   2. Withdrawing (evicting) one tenant never changes any other
      tenant's per-prefix reach, measured against the propagation
      oracle ([Testbed.reach_count]).
   3. Admission verdicts and the full schedule are byte-identical
      across two same-seed runs: the decision log and the
      [peering-sched/2] JSON document are compared byte for byte.

   Widen the sweep with SCHED_SEEDS=<n> (default 10). *)

open Peering_net
open Peering_core
module Gen = Peering_topo.Gen

let n_seeds =
  match Sys.getenv_opt "SCHED_SEEDS" with
  | None -> 10
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | Some _ | None -> invalid_arg "SCHED_SEEDS must be a positive integer")

let seeds = List.init n_seeds (fun i -> i + 1)

(* ~685 ASes: the smallest world that seats AMS-IX's 669 members,
   enough topology for distinct catchments, fast enough to rebuild for
   every seed (twice, for the byte-identity oracle). *)
let world seed =
  { Gen.seed;
    n_tier1 = 3;
    n_large_transit = 5;
    n_small_transit = 12;
    n_stub = 660;
    n_content = 5;
    target_prefixes = 150
  }

let params seed =
  { Testbed.default_params with
    Testbed.world = world seed;
    seed;
    university_sites = [ ("gatech01", 2); ("usc01", 2) ]
  }

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* ------------------------------------------------------------------ *)
(* One scenario: a deterministic function of the seed.

   Builds the testbed, admits [n_tenants] randomized proposals
   (some deliberately conflicting: duplicate ids, cross-tenant poison
   targets), lets every admitted tenant announce its lease, runs the
   engine, and returns the scheduler plus the testbed for oracle
   checks. *)

let n_tenants = 14

let run_scenario seed =
  let tb = Testbed.build ~params:(params seed) () in
  let rng = Random.State.make [| 0x5ced; seed |] in
  let sched =
    Scheduler.create ~round_interval:0.5
      ~extra_supply:[ Prefix.of_string_exn "184.164.192.0/19" ]
      tb
  in
  let site_names = List.map Testbed.site_name (Testbed.sites tb) in
  let pick_sites () =
    match Random.State.int rng 3 with
    | 0 -> []  (* all sites *)
    | _ ->
      [ List.nth site_names (Random.State.int rng (List.length site_names)) ]
  in
  (* Random admission order over a fixed tenant population. *)
  let order = Array.init n_tenants (fun i -> i) in
  for i = n_tenants - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  Array.iter
    (fun i ->
      let tenant = Printf.sprintf "tenant-%02d" i in
      let poison_targets =
        (* every third tenant declares poison targets; some of them
           target a previously admitted tenant's private origin (must
           be rejected), the rest poison a harmless public ASN with
           board approval (admitted). *)
        if i mod 3 <> 0 then []
        else
          match Scheduler.tenants sched with
          | prior :: _ when Random.State.bool rng -> (
            match Scheduler.client sched prior with
            | Some c -> (Client.experiment c).Experiment.private_asns
            | None -> [])
          | _ -> [ Asn.of_int 3356 ]
      in
      let p =
        Scheduler.proposal
          ~n_prefixes:(1 + Random.State.int rng 2)
          ~may_poison:(poison_targets <> [])
          ~poison_targets ~sites:(pick_sites ()) tenant
      in
      (* duplicate-id probes ride along; both verdicts land in the log *)
      ignore (Scheduler.admit sched p);
      if Random.State.int rng 4 = 0 then ignore (Scheduler.admit sched p))
    order;
  (* every admitted tenant announces its whole lease *)
  List.iter
    (fun tenant ->
      List.iter
        (fun p ->
          match Scheduler.request_announce sched ~tenant p with
          | Ok () -> ()
          | Error e -> fail "seed %d: %s announce refused: %s" seed tenant e)
        (Scheduler.leased_prefixes sched tenant))
    (Scheduler.tenants sched);
  ignore (Scheduler.pump sched);
  (tb, sched)

(* ------------------------------------------------------------------ *)
(* Oracle 1: pairwise lease disjointness *)

let check_no_overlap seed sched =
  let leases =
    List.concat_map
      (fun t ->
        List.map (fun p -> (t, p)) (Scheduler.leased_prefixes sched t))
      (Scheduler.tenants sched)
  in
  List.iter
    (fun (t1, p1) ->
      List.iter
        (fun (t2, p2) ->
          if t1 <> t2 && Prefix.overlaps p1 p2 then
            fail "seed %d: leases overlap: %s holds %s, %s holds %s" seed t1
              (Prefix.to_string p1) t2 (Prefix.to_string p2))
        leases)
    leases;
  (match Scheduler.isolation_violations sched with
  | 0 -> ()
  | n -> fail "seed %d: scheduler reports %d isolation violations" seed n);
  List.length leases

(* Oracle 2: evicting one tenant leaves every other tenant's
   per-prefix reach untouched, and zeroes its own. *)

let check_eviction_isolation seed tb sched =
  match Scheduler.tenants sched with
  | [] | [ _ ] -> ()
  | victim :: others ->
    let reach_of t =
      List.map (fun p -> (p, Testbed.reach_count tb p))
        (Scheduler.leased_prefixes sched t)
    in
    let before = List.map (fun t -> (t, reach_of t)) others in
    let victim_leases = Scheduler.leased_prefixes sched victim in
    if not (Scheduler.evict sched ~tenant:victim ~reason:"isolation drill")
    then fail "seed %d: evicting %s failed" seed victim;
    List.iter
      (fun p ->
        let r = Testbed.reach_count tb p in
        if r <> 0 then
          fail "seed %d: %s evicted but %s still reaches %d ASes" seed victim
            (Prefix.to_string p) r)
      victim_leases;
    List.iter
      (fun (t, reaches) ->
        List.iter
          (fun (p, r0) ->
            let r1 = Testbed.reach_count tb p in
            if r1 <> r0 then
              fail
                "seed %d: evicting %s changed %s's reach for %s (%d -> %d)"
                seed victim t (Prefix.to_string p) r0 r1)
          reaches)
      before

(* Oracle 3: the decision log and the JSON schedule are byte-identical
   across two same-seed runs. *)

let snapshot sched =
  String.concat "\n" (Scheduler.log sched)
  ^ "\n---\n"
  ^ Peering_obs.Json.to_string ~indent:2 (Scheduler.to_json sched)

let () =
  Printf.printf
    "sched-isolation: %d seeds x %d tenants (set SCHED_SEEDS to widen)\n%!"
    n_seeds n_tenants;
  List.iter
    (fun seed ->
      Peering_obs.Metrics.reset ();
      let tb, sched = run_scenario seed in
      let admitted = List.length (Scheduler.tenants sched) in
      if admitted < 2 then
        fail "seed %d: only %d tenants admitted; scenario too weak" seed
          admitted;
      let leases = check_no_overlap seed sched in
      check_eviction_isolation seed tb sched;
      ignore (Scheduler.pump sched);
      let snap_a = snapshot sched in
      (* replay: same seed, fresh world — must be byte-identical up to
         the point where the first run diverges into the eviction
         drill, so replay the drill too. *)
      Peering_obs.Metrics.reset ();
      let tb2, sched2 = run_scenario seed in
      check_eviction_isolation seed tb2 sched2;
      ignore (Scheduler.pump sched2);
      let snap_b = snapshot sched2 in
      if not (String.equal snap_a snap_b) then begin
        prerr_endline "--- run A ---";
        prerr_endline snap_a;
        prerr_endline "--- run B ---";
        prerr_endline snap_b;
        fail "seed %d: same-seed schedules differ" seed
      end;
      Printf.printf
        "  seed %2d: %2d admitted, %2d leases, eviction isolated, replay \
         byte-identical\n%!"
        seed admitted leases)
    seeds;
  Printf.printf "sched-isolation: all %d seeds passed\n%!" n_seeds
