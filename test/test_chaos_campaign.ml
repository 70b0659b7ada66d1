(* Acceptance harness for the compound chaos campaign (ISSUE 8): on
   every seed, every drill of the canonical campaign must reconverge
   with zero routes lost, meet its per-class p99 recovery SLO, and
   produce a byte-identical report — blast-radius accounting included —
   when replayed with the same seed. A single-drill rerun must also
   reproduce the full campaign's outcome for that drill exactly, since
   drill seeds derive from canonical positions, not run order.

   The wire drills cost milliseconds each, so on top of the full
   campaigns each one also runs alone over a wide seed sweep, where a
   rare stuck session (an UPDATE lost and never resent) cannot hide.

   Run alone with `dune build @chaos-campaign`; widen the campaign
   sweep with CHAOS_CAMPAIGN_SEEDS=<n> (default 3). *)

module Campaign = Peering_fault.Campaign
module Stats = Peering_measure.Stats
module Metrics = Peering_obs.Metrics
module Json = Peering_obs.Json

let n_seeds =
  match Sys.getenv_opt "CHAOS_CAMPAIGN_SEEDS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 3)
  | None -> 3

let n_wire_seeds = 200

let wire_drills =
  [ "loss"; "duplicate"; "corrupt"; "reorder"; "reset"; "partition" ]

let failures = ref 0

let check label ok =
  if not ok then begin
    incr failures;
    Printf.printf "  FAIL %s\n" label
  end

let run_report seed =
  Metrics.reset ();
  let r = Campaign.run ~seed () in
  (r, Json.to_string ~indent:2 (Campaign.to_json r))

let exercise seed =
  Printf.printf "seed %d:\n" seed;
  let r, json1 = run_report seed in
  let label fmt = Printf.ksprintf (fun s -> Printf.sprintf "[%d] %s" seed s) fmt in
  check (label "every declared drill ran")
    (List.map (fun (o : Campaign.outcome) -> o.Campaign.drill) r.Campaign.outcomes
    = Campaign.drills);
  List.iter
    (fun (o : Campaign.outcome) ->
      check (label "%s reconverged" o.Campaign.drill) o.Campaign.reconverged;
      check
        (label "%s zero routes lost" o.Campaign.drill)
        (o.Campaign.routes_lost = 0);
      check
        (label "%s finite recovery" o.Campaign.drill)
        (Float.is_finite o.Campaign.recovery_s))
    r.Campaign.outcomes;
  List.iter
    (fun (v : Stats.slo) ->
      check
        (label "SLO %s: p99 %.2fs within %.0fs" v.slo_name v.p99_s
           v.budget_s)
        v.met)
    r.Campaign.slos;
  check (label "zero routes lost overall") r.Campaign.zero_routes_lost;
  check (label "campaign passed") r.Campaign.passed;
  (* The multi-tenant drill fires the compound plan under >= 20
     concurrent scheduler-admitted experiments; every tenant must end
     the drill with its per-prefix reach exactly at its own baseline
     (per-tenant zero routes lost), and its p99 recovery SLO class
     must have been judged. *)
  (let mt =
     List.find
       (fun (o : Campaign.outcome) -> o.Campaign.drill = "multi_tenant")
       r.Campaign.outcomes
   in
   check
     (label "multi_tenant ran >= 20 scheduled experiments")
     (List.length mt.Campaign.tenant_reaches >= 20);
   List.iter
     (fun (tenant, base, final) ->
       check
         (label "multi_tenant %s reach restored (%d -> %d)" tenant base final)
         (final = base && base > 0))
     mt.Campaign.tenant_reaches;
   check
     (label "multi_tenant recovery SLO judged")
     (List.exists
        (fun (v : Stats.slo) -> v.slo_name = "multi_tenant")
        r.Campaign.slos));
  (* Same seed, byte-identical report — blast radii and all. *)
  let _, json2 = run_report seed in
  check (label "same-seed report byte-identical") (String.equal json1 json2);
  (* A single-drill rerun replays the exact world the full campaign
     used for that drill: outcomes must match structurally (compare,
     not (=), so a NaN recovery can never hide a mismatch). *)
  let full_cascade =
    List.find
      (fun (o : Campaign.outcome) -> o.Campaign.drill = "cascade")
      r.Campaign.outcomes
  in
  Metrics.reset ();
  let sub = Campaign.run ~seed ~drills:[ "cascade" ] () in
  let solo =
    match sub.Campaign.outcomes with
    | [ o ] -> o
    | _ -> failwith "subset campaign should run exactly one drill"
  in
  check (label "single-drill rerun reproduces the campaign outcome")
    (compare solo full_cascade = 0);
  Printf.printf "  %d drills ok, %d SLO classes ok\n"
    (List.length r.Campaign.outcomes)
    (List.length r.Campaign.slos)

(* Every wire drill, alone, on seeds 1..n: reconverged, zero routes
   lost, and recovery within its class budget. *)
let sweep_wire_drills () =
  List.iter
    (fun drill ->
      check
        (Printf.sprintf "%s is a campaign drill" drill)
        (List.mem drill Campaign.drills);
      for seed = 1 to n_wire_seeds do
        let o, _ = Campaign.run_drill ~seed drill in
        let { Campaign.p99_budget_s = budget; _ } =
          List.find
            (fun (s : Campaign.slo) ->
              s.Campaign.slo_class = o.Campaign.slo_class)
            Campaign.default_slos
        in
        check
          (Printf.sprintf "[%d] %s reconverged with zero routes lost" seed drill)
          (o.Campaign.reconverged && o.Campaign.routes_lost = 0);
        check
          (Printf.sprintf "[%d] %s recovered in %.2fs within %.0fs" seed drill
             o.Campaign.recovery_s budget)
          (o.Campaign.recovery_s <= budget)
      done)
    wire_drills;
  Printf.printf "wire drills: %d drills x %d seeds\n"
    (List.length wire_drills) n_wire_seeds

let () =
  Printf.printf
    "chaos-campaign: %d seeds (CHAOS_CAMPAIGN_SEEDS to widen)\n" n_seeds;
  for i = 0 to n_seeds - 1 do
    exercise (42 + (7 * i))
  done;
  sweep_wire_drills ();
  if !failures > 0 then begin
    Printf.printf "chaos-campaign: %d FAILURES\n" !failures;
    exit 1
  end;
  Printf.printf "chaos-campaign: all checks passed\n"
