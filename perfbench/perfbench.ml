(* The benchmark's command line.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1 [--tiny]
     perfbench.exe --self-check BENCHMARK.json

   A run is one process with one closed-loop caller: it sets the
   workload up, runs its fixed, seeded number of ops (each starts when
   the previous one returns), reads, checks the outputs, and prints a
   human-readable report followed by one JSON line:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones
   (see README.md). *)

open Harness
module Json = Peering_obs.Json

let workloads =
  [ ("announce", Testbed_load.announce);
    ("churn", Testbed_load.churn);
    ("feed", Feed_load.run);
    ("table_load", Table_load.run)
  ]

(* Every per-layer metric with its unit, in report order. A workload
   that leaves a layer idle reports 0 for it. *)
let layer_catalogue =
  [ ("propagation.calls_per_op", "count");
    ("propagation.ms_per_call", "ms");
    ("propagation.offers_per_call", "count");
    ("propagation.adoptions_per_call", "count");
    ("propagation.minor_words_per_call", "words");
    ("testbed.repropagations_per_op", "count");
    ("testbed.self_ms_per_op", "ms");
    ("testbed.collector_entries_per_op", "count");
    ("safety.check_ns", "ns");
    ("safety.refusals", "count");
    ("server.learn_self_ns", "ns");
    ("bmp.msgs_per_route", "count");
    ("bmp.bytes_per_msg", "bytes");
    ("bmp.encode_ns", "ns");
    ("bmp.decode_ns", "ns");
    ("monitor.feed_ns_per_msg", "ns");
    ("monitor.state_mb", "MB");
    ("monitor.parse_errors", "count");
    ("rib.announce_ns", "ns");
    ("rib.peer_tables", "count");
    ("rib.loc_changes_per_announce", "count");
    ("rib.words_per_route", "words");
    ("rib.lookup_ns", "ns");
    ("decision.p50_us", "us");
    ("mrt.decode_records_per_s", "1/s");
    ("gc.minor_words_per_op", "words");
    ("gc.promoted_words_per_op", "words");
    ("gc.major_collections", "count");
    ("trace.op_ms", "ms");
    ("trace.attributed_share", "ratio");
    ("host.ref_loop_start_s", "s");
    ("host.ref_loop_end_s", "s")
  ]

let layer_metrics o ~ref_start ~ref_end =
  let given = o.layers @ [ ("host.ref_loop_start_s", ref_start); ("host.ref_loop_end_s", ref_end) ] in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name layer_catalogue) then
        failwith ("perfbench: layer metric missing from the catalogue: " ^ name))
    given;
  List.map
    (fun (name, unit_) ->
      m name unit_ (Option.value (List.assoc_opt name given) ~default:0.0))
    layer_catalogue

let result_json ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun mt ->
                  (mt.name, Json.Obj [ ("value", Json.Float mt.value); ("unit", Json.String mt.unit_) ]))
                metrics) )
       ])

(* Traced runs name the three largest cost centres by self time. *)
let cost_centres o =
  let total = List.fold_left (fun acc (_, ns) -> acc +. Float.max 0.0 ns) 0.0 o.centres in
  List.sort (fun (_, a) (_, b) -> compare b a) o.centres
  |> List.filteri (fun i _ -> i < 3)
  |> List.mapi (fun i (name, ns) ->
         Printf.sprintf "cost centre %d: %s, %.3f s self (%.1f%%)" (i + 1) name
           (ns *. 1e-9) (100.0 *. ratio ns total))

let run_workload ~name cfg =
  let run =
    match List.assoc_opt name workloads with
    | Some f -> f
    | None -> failwith ("perfbench: unknown workload " ^ name)
  in
  let ref_start = reference_loop () in
  let o = run cfg in
  let ref_end = reference_loop () in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d%s\n" name cfg.seed cfg.seconds
    (Bool.to_int cfg.trace)
    (if cfg.tiny then " tiny" else "");
  Printf.printf "host: nproc=%d domains=1 (pinned) ocaml=%s reference loop %.3f s -> %.3f s\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version ref_start ref_end;
  List.iter print_endline o.report;
  let attempted = List.length o.ops in
  let metrics = if cfg.trace then layer_metrics o ~ref_start ~ref_end else end_to_end o in
  List.iter (fun mt -> Printf.printf "%-36s %16.6f %s\n" mt.name mt.value mt.unit_) metrics;
  List.iter print_endline (if cfg.trace then cost_centres o else extra_lines o);
  print_endline (result_json ~correct:(o.failed = 0) ~attempted ~failed:o.failed metrics)

(* ------------------------------------------------------------------ *)
(* Self-check: run every workload at tiny scale as a child process,
   twice per mode with the same seed. Every metric BENCHMARK.json
   names must be printed with its unit, every run must be correct,
   and the counts that do not depend on the clock must repeat
   exactly. *)

let deterministic =
  [ "state_mb"; "propagation.calls_per_op"; "propagation.offers_per_call";
    "propagation.adoptions_per_call"; "propagation.minor_words_per_call";
    "testbed.repropagations_per_op"; "testbed.collector_entries_per_op";
    "bmp.msgs_per_route"; "bmp.bytes_per_msg"; "monitor.state_mb"; "rib.peer_tables";
    "rib.loc_changes_per_announce"; "rib.words_per_route"; "gc.minor_words_per_op" ]

let child_result args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let rec last prev = match input_line ic with l -> last (Some l) | exception End_of_file -> prev in
  let line = last None in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> (
    match Json.of_string l with
    | Ok j -> j
    | Error e -> failwith ("self-check: bad result line: " ^ e))
  | _ -> failwith ("self-check: run failed: " ^ String.concat " " args)

let spec_metrics spec key =
  match Json.member key spec with
  | None -> failwith ("self-check: BENCHMARK.json has no " ^ key)
  | Some l ->
    List.map
      (fun j ->
        match (Json.member "name" j, Json.member "unit" j) with
        | Some n, Some u -> (
          match (Json.string_value n, Json.string_value u) with
          | Some n, Some u -> (n, u)
          | _ -> failwith "self-check: malformed metric")
        | _ -> failwith "self-check: malformed metric")
      (Json.to_list l)

let self_check spec_path =
  let spec =
    match Json.of_string (In_channel.with_open_bin spec_path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("self-check: " ^ e)
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun (trace, key) ->
          let args =
            [ "--workload"; name; "--seed"; "3"; "--seconds"; "1"; "--trace"; trace; "--tiny" ]
          in
          let a = child_result args and b = child_result args in
          let metric j n = Option.bind (Json.member "metrics" j) (Json.member n) in
          List.iter
            (fun j ->
              if Json.member "correct" j <> Some (Json.Bool true) then
                problem "%s trace=%s: not correct" name trace)
            [ a; b ];
          List.iter
            (fun (n, u) ->
              match metric a n with
              | None -> problem "%s trace=%s: %s not printed" name trace n
              | Some v ->
                if Option.bind (Json.member "unit" v) Json.string_value <> Some u then
                  problem "%s trace=%s: %s unit differs from BENCHMARK.json" name trace n;
                if
                  List.mem n deterministic
                  && not (Option.equal Json.equal (metric a n) (metric b n))
                then problem "%s trace=%s: %s differs across same-seed runs" name trace n)
            (spec_metrics spec key))
        [ ("0", "end_to_end"); ("1", "per_layer") ];
      Printf.printf "self-check %s: done\n%!" name)
    workloads;
  match List.rev !problems with
  | [] -> print_endline "self-check: ok"
  | ps ->
    List.iter prerr_endline ps;
    exit 1

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let tiny = ref false and check = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W announce | churn | feed | table_load");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S sizes the fixed op count (ops = S x nominal rate)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--tiny", Arg.Set tiny, " self-check scale");
      ("--self-check", Arg.Set_string check, "SPEC run the tiny-scale schema and determinism check")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if !check <> "" then self_check !check
  else
    run_workload ~name:!workload
      { seed = !seed; seconds = max 1 !seconds; trace = !trace = 1; tiny = !tiny }
