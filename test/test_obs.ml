(* The observability layer: JSON emitter/parser, the metrics registry,
   the typed event sink, and end-to-end snapshot determinism. *)

open Peering_obs
module Engine = Peering_sim.Engine
module Obs_report = Peering_measure.Obs_report
open Peering_core

let check = Alcotest.check
let tc = Alcotest.test_case

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Json *)

let roundtrip v =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [ ("null", Json.Null);
        ("bool", Json.Bool true);
        ("int", Json.Int (-42));
        ("float", Json.Float 2.5);
        ("big", Json.Float 1.0e300);
        ("string", Json.String "line\nbreak \"quoted\" \t tab");
        ("unicode", Json.String "caf\xc3\xa9");
        ( "list",
          Json.List [ Json.Int 1; Json.List []; Json.Obj []; Json.String "" ]
        )
      ]
  in
  check Alcotest.bool "compact roundtrip" true (Json.equal doc (roundtrip doc));
  (match Json.of_string (Json.to_string ~indent:2 doc) with
  | Ok v -> check Alcotest.bool "indented roundtrip" true (Json.equal doc v)
  | Error e -> Alcotest.failf "indented reparse failed: %s" e);
  (* non-finite floats serialize as null rather than invalid JSON *)
  check Alcotest.string "nan is null" "null" (Json.to_string (Json.Float nan));
  check Alcotest.string "inf is null" "null"
    (Json.to_string (Json.Float infinity))

let test_json_parse_errors () =
  let fails s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "accepted malformed input %S" s
    | Error _ -> ()
  in
  fails "";
  fails "{";
  fails "[1, 2,]";
  fails "{\"a\": 1,}";
  fails "\"unterminated";
  fails "nul";
  fails "1.2.3";
  fails "{\"a\" 1}";
  fails "[1] trailing";
  (* escapes parse back to the original characters *)
  match Json.of_string "\"a\\u0041\\n\\\"\"" with
  | Ok (Json.String s) -> check Alcotest.string "escapes" "aA\n\"" s
  | Ok _ | Error _ -> Alcotest.fail "escape parse"

(* Truncation at every byte, deep nesting, and non-ASCII payloads:
   the parser must return [Error] (or a correct value), never raise. *)
let test_json_edge_cases () =
  let full = "{\"k\": [1, -2.5, \"caf\xc3\xa9\", {\"nested\": null}], \"t\": true}" in
  (match Json.of_string full with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "full doc rejected: %s" e);
  for len = 0 to String.length full - 1 do
    match Json.of_string (String.sub full 0 len) with
    | Ok v ->
      Alcotest.failf "truncation at %d accepted as %s" len (Json.to_string v)
    | Error _ -> ()
    | exception e ->
      Alcotest.failf "truncation at %d raised %s" len (Printexc.to_string e)
  done;
  (* deep nesting parses back structurally (no stack surprises) *)
  let depth = 500 in
  let deep =
    String.concat "" (List.init depth (fun _ -> "["))
    ^ "7"
    ^ String.concat "" (List.init depth (fun _ -> "]"))
  in
  (match Json.of_string deep with
  | Ok v ->
    let rec unwrap n = function
      | Json.List [ inner ] -> unwrap (n + 1) inner
      | Json.Int 7 -> check Alcotest.int "nesting depth" depth n
      | _ -> Alcotest.fail "deep nesting shape"
    in
    unwrap 0 v
  | Error e -> Alcotest.failf "deep nesting rejected: %s" e);
  (* an unterminated deep prefix must error, not raise *)
  (match Json.of_string (String.concat "" (List.init depth (fun _ -> "["))) with
  | Ok _ -> Alcotest.fail "accepted unterminated nesting"
  | Error _ -> ());
  (* non-ASCII strings: raw UTF-8 passes through byte-exactly, and
     \u escapes for multi-byte code points decode to UTF-8 *)
  let cyrillic = "\xd0\xbf\xd1\x80\xd0\xb8\xd0\xb2\xd0\xb5\xd1\x82" in
  (match Json.of_string (Json.to_string (Json.String cyrillic)) with
  | Ok (Json.String s) -> check Alcotest.string "utf-8 roundtrip" cyrillic s
  | Ok _ | Error _ -> Alcotest.fail "utf-8 roundtrip");
  match Json.of_string "\"\\u00e9\"" with
  | Ok (Json.String s) -> check Alcotest.string "latin escape" "\xc3\xa9" s
  | Ok _ | Error _ -> Alcotest.fail "latin escape parse"

let test_json_accessors () =
  match Json.of_string "{\"rows\": [{\"n\": 3}], \"name\": \"e1\"}" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok doc ->
    (match Json.member "name" doc with
    | Some (Json.String s) -> check Alcotest.string "member" "e1" s
    | _ -> Alcotest.fail "name member");
    (match Json.member "rows" doc with
    | Some rows -> (
      match Json.to_list rows with
      | [ row ] ->
        check Alcotest.(option (float 1e-9)) "number" (Some 3.0)
          (Option.bind (Json.member "n" row) Json.number_value)
      | _ -> Alcotest.fail "rows shape")
    | None -> Alcotest.fail "rows member")

(* Every --json artifact depends on the emitter's exact layout, so pin
   its bytes, compact and indent-2: empty containers, nested lists,
   escaped quotes, floats and null. *)
let sample_tree =
  Json.Obj
    [ ("schema", Json.String "layout-test/1");
      ( "rows",
        Json.List
          [ Json.Obj
              [ ("label", Json.String "a \"quoted\" label");
                ("n", Json.Int 3);
                ("x", Json.Float 1.5);
                ("y", Json.Float 2.0)
              ];
            Json.Obj [ ("label", Json.String "second"); ("ok", Json.Bool true) ]
          ] );
      ("empty_obj", Json.Obj []);
      ("empty_list", Json.List []);
      ("nothing", Json.Null);
      ( "nested",
        Json.List [ Json.List [ Json.Int 1; Json.Int 2 ]; Json.List [] ] )
    ]

let test_json_compact_bytes () =
  check Alcotest.string "compact bytes"
    ({|{"schema":"layout-test/1","rows":[{"label":"a \"quoted\" label",|}
    ^ {|"n":3,"x":1.5,"y":2.0},{"label":"second","ok":true}],|}
    ^ {|"empty_obj":{},"empty_list":[],"nothing":null,"nested":[[1,2],[]]}|}
    )
    (Json.to_string sample_tree)

let test_json_indented_bytes () =
  check Alcotest.string "indent-2 bytes"
    (String.concat "\n"
       [ {|{|};
         {|  "schema": "layout-test/1",|};
         {|  "rows": [|};
         {|    {|};
         {|      "label": "a \"quoted\" label",|};
         {|      "n": 3,|};
         {|      "x": 1.5,|};
         {|      "y": 2.0|};
         {|    },|};
         {|    {|};
         {|      "label": "second",|};
         {|      "ok": true|};
         {|    }|};
         {|  ],|};
         {|  "empty_obj": {},|};
         {|  "empty_list": [],|};
         {|  "nothing": null,|};
         {|  "nested": [|};
         {|    [|};
         {|      1,|};
         {|      2|};
         {|    ],|};
         {|    []|};
         {|  ]|};
         {|}|}
       ])
    (Json.to_string ~indent:2 sample_tree)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_basics () =
  Metrics.reset ();
  let c = Metrics.counter "t.count" in
  Metrics.Counter.inc c;
  Metrics.Counter.add c 4;
  check Alcotest.int "counter" 5 (Metrics.Counter.value c);
  (* registration is memoised: same name, same instrument *)
  let c' = Metrics.counter "t.count" in
  Metrics.Counter.inc c';
  check Alcotest.int "memoised" 6 (Metrics.Counter.value c);
  let g = Metrics.gauge "t.gauge" in
  Metrics.Gauge.set g 3.0;
  Metrics.Gauge.set g 1.0;
  check Alcotest.(float 1e-9) "gauge level" 1.0 (Metrics.Gauge.value g);
  check Alcotest.(float 1e-9) "gauge hwm" 3.0 (Metrics.Gauge.hwm g);
  (* a name cannot change kind *)
  match Metrics.gauge "t.count" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted"

let test_metrics_histogram_cap () =
  Metrics.reset ();
  let h =
    Metrics.histogram ~sample_cap:5 "t.hist"
  in
  for i = 1 to 8 do
    Metrics.Histogram.observe h (float_of_int i)
  done;
  check Alcotest.int "count keeps accumulating" 8 (Metrics.Histogram.count h);
  check Alcotest.(float 1e-9) "sum keeps accumulating" 36.0
    (Metrics.Histogram.sum h);
  check Alcotest.int "samples capped" 5
    (List.length (Metrics.Histogram.samples h));
  check Alcotest.int "dropped accounted" 3 (Metrics.Histogram.dropped h)

let test_metrics_reset_and_snapshot () =
  Metrics.reset ();
  let c = Metrics.counter "snap.b.count" in
  let g = Metrics.gauge "snap.a.gauge" in
  let v = Metrics.counter ~volatile:true "snap.c.volatile" in
  Metrics.Counter.inc c;
  Metrics.Gauge.set g 2.0;
  Metrics.Counter.inc v;
  (* snapshot is sorted by name and hides volatile rows by default *)
  let names rows =
    List.filter_map
      (fun r ->
        let n = Metrics.row_name r in
        if String.starts_with ~prefix:"snap." n then Some n else None)
      rows
  in
  check
    Alcotest.(list string)
    "sorted, volatile hidden" [ "snap.a.gauge"; "snap.b.count" ]
    (names (Metrics.snapshot ()));
  check
    Alcotest.(list string)
    "volatile on demand"
    [ "snap.a.gauge"; "snap.b.count"; "snap.c.volatile" ]
    (names (Metrics.snapshot ~include_volatile:true ()));
  (* reset zeroes in place; instruments already held stay live *)
  Metrics.reset ();
  check Alcotest.int "counter zeroed" 0 (Metrics.Counter.value c);
  check Alcotest.(float 1e-9) "hwm zeroed" 0.0 (Metrics.Gauge.hwm g);
  Metrics.Counter.inc c;
  check Alcotest.int "instrument survives reset" 1 (Metrics.Counter.value c);
  check Alcotest.int "counter_value reads registry" 1
    (Metrics.counter_value "snap.b.count");
  check Alcotest.int "unregistered reads zero" 0
    (Metrics.counter_value "no.such.metric")

(* ------------------------------------------------------------------ *)
(* Labeled metrics: duplicate keys, the label-set family cache, and
   the hot-path cost of an increment *)

let test_duplicate_label_keys () =
  Metrics.reset ();
  Alcotest.check_raises "adjacent duplicates rejected"
    (Invalid_argument "Metrics: duplicate label key \"site\" in label set")
    (fun () ->
      ignore
        (Metrics.counter ~labels:[ ("site", "ams"); ("site", "gru") ] "dup.count"));
  (* Detection happens after canonical sorting, so non-adjacent
     duplicates are caught too. *)
  Alcotest.check_raises "non-adjacent duplicates rejected"
    (Invalid_argument "Metrics: duplicate label key \"a\" in label set")
    (fun () ->
      ignore
        (Metrics.counter ~labels:[ ("a", "1"); ("b", "2"); ("a", "3") ] "dup2.count"))

let test_family_cache () =
  Metrics.reset ();
  let fam = Metrics.Family.counter "fam.count" in
  let a = Metrics.Family.get fam [ ("site", "ams"); ("kind", "x") ] in
  let b = Metrics.Family.get fam [ ("kind", "x"); ("site", "ams") ] in
  check Alcotest.bool "same label set, same instrument" true (a == b);
  let c = Metrics.Family.get fam [ ("site", "gru"); ("kind", "x") ] in
  check Alcotest.bool "distinct label set, distinct instrument" true
    (not (a == c));
  Metrics.Counter.inc a;
  Metrics.Counter.add b 2;
  check Alcotest.int "both handles hit one counter" 3
    (Metrics.counter_value 
           ~labels:[ ("kind", "x"); ("site", "ams") ]
       "fam.count")

let test_family_hot_path_allocation () =
  Metrics.reset ();
  let fam = Metrics.Family.counter "hot.count" in
  let c = Metrics.Family.get fam [ ("site", "ams") ] in
  for _ = 1 to 100 do
    Metrics.Counter.inc c
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Metrics.Counter.inc c
  done;
  let after = Gc.minor_words () in
  (* Gc.minor_words itself boxes its float result, so allow a few
     words of slack — far below one word per increment. *)
  check Alcotest.bool "increment hot path is allocation-free" true
    (after -. before < 64.0);
  check Alcotest.int "increments landed" 10_100
    (Metrics.counter_value ~labels:[ ("site", "ams") ] "hot.count")

(* ------------------------------------------------------------------ *)
(* Causal spans: contexts, the recorder, ambient stamping,
   propagation across the engine's event queue *)

let test_span_contexts () =
  Sink.start ();
  let root = Span.start ~time:0.0 "root" in
  let child =
    Span.with_current
      (Some (Span.context root))
      (fun () -> Span.start ~time:0.5 "child")
  in
  let rc = Span.context root and cc = Span.context child in
  check Alcotest.int "a root starts its own trace" rc.Span.trace rc.Span.span;
  check Alcotest.(option int) "root has no parent" None rc.Span.parent;
  check Alcotest.int "child inherits the trace" rc.Span.trace cc.Span.trace;
  check Alcotest.(option int) "child parented on ambient"
    (Some rc.Span.span) cc.Span.parent;
  Span.finish child ~time:1.0;
  Span.finish root ~time:2.0 ~attrs:[ ("done", "yes") ];
  (match Sink.spans () with
  | [ c; r ] ->
    check Alcotest.string "finish order" "child" c.Span.name;
    check Alcotest.string "root finished last" "root" r.Span.name;
    check Alcotest.(float 1e-9) "duration recorded" 2.0 r.Span.ended;
    check Alcotest.bool "finish-time attrs merged" true
      (List.mem_assoc "done" r.Span.attrs)
  | _ -> Alcotest.fail "recorder shape");
  Sink.stop ();
  Sink.clear ()

(* The recorder's bound on retained events and spans (sink.mli). *)
let capacity = 100_000

(* A test event carrying [msg]. *)
let note msg = Event.Fault_injected { target = msg; fault = "test" }

(* [n] filler events. *)
let fill n =
  for i = 1 to n do
    Sink.emit ~time:0.0 ~subsystem:"fill" (note (string_of_int i))
  done

let test_flight_recorder_drops () =
  Sink.start ();
  List.iter
    (fun name ->
      let sp = Span.start ~time:0.0 name in
      Span.finish sp ~time:1.0;
      (* finishing again is a no-op, not a duplicate record *)
      Span.finish sp ~time:9.0)
    [ "a"; "b"; "c" ];
  fill (capacity - 2);
  check Alcotest.int "capacity bound holds" capacity
    (List.length (Sink.spans ()) + List.length (Sink.events ()));
  check Alcotest.int "drop accounted" 1 (Sink.dropped ());
  (match Sink.spans () with
  | [ b; c ] ->
    check Alcotest.string "oldest dropped" "b" b.Span.name;
    check Alcotest.string "newest kept" "c" c.Span.name;
    check Alcotest.(float 1e-9) "idempotent finish kept first end time" 1.0
      c.Span.ended
  | _ -> Alcotest.fail "recorder shape");
  Sink.stop ();
  Sink.clear ()

let test_emit_ambient_stamp () =
  Sink.start ();
  let sp = Span.start ~time:0.0 "ambient" in
  Span.with_current
    (Some (Span.context sp))
    (fun () -> Sink.emit ~subsystem:"t" (note "stamped"));
  Sink.emit ~subsystem:"t" (note "unstamped");
  Span.finish sp ~time:1.0;
  Sink.stop ();
  match Sink.events () with
  | [ a; b ] ->
    (match a.Sink.span with
    | Some c ->
      check Alcotest.int "stamped with the ambient span"
        (Span.context sp).Span.span c.Span.span
    | None -> Alcotest.fail "event missing its span stamp");
    check Alcotest.bool "no ambient, no stamp" true (b.Sink.span = None)
  | _ -> Alcotest.fail "event shape"

let test_engine_span_capture () =
  Sink.start ();
  let engine = Engine.create () in
  let seen = ref None in
  let sp = Span.start ~time:0.0 "cause" in
  Span.with_current
    (Some (Span.context sp))
    (fun () ->
      Engine.schedule engine ~delay:1.0 (fun () -> seen := Span.current ()));
  Span.finish sp ~time:0.0;
  Engine.schedule engine ~delay:2.0 (fun () -> ());
  Engine.run_for engine 5.0;
  Sink.stop ();
  match !seen with
  | Some c ->
    check Alcotest.int "callback ran under the scheduling span"
      (Span.context sp).Span.span c.Span.span
  | None -> Alcotest.fail "span context not carried across the event queue"

(* Two identically seeded runs must mint identical span trees — ids,
   names, parents, times and attributes. *)
let span_fingerprint () =
  Metrics.reset ();
  Sink.start ();
  let params =
    { Testbed.default_params with
      Testbed.world =
        { Peering_topo.Gen.default_params with
          Peering_topo.Gen.n_stub = 900;
          n_small_transit = 80;
          target_prefixes = 4000
        };
      university_sites = [ ("gatech01", 2) ]
    }
  in
  let t = Testbed.build ~params () in
  let experiment =
    match Testbed.new_experiment t ~id:"det" ~owner:"test" () with
    | Ok e -> e
    | Error m -> failwith m
  in
  let client = Client.create ~id:"det-client" ~experiment () in
  Testbed.connect_client t client ~sites:[ "amsterdam01" ];
  let prefix = List.hd experiment.Experiment.prefixes in
  ignore (Client.announce client prefix);
  Client.withdraw client prefix;
  Sink.stop ();
  let fp =
    String.concat "\n"
      (List.map
         (fun (sp : Span.completed) ->
           Printf.sprintf "%d/%d/%s %s [%g,%g] %s" sp.Span.ctx.Span.trace
             sp.Span.ctx.Span.span
             (match sp.Span.ctx.Span.parent with
             | None -> "-"
             | Some p -> string_of_int p)
             sp.Span.name sp.Span.started sp.Span.ended
             (String.concat ","
                (List.map (fun (k, v) -> k ^ "=" ^ v) sp.Span.attrs)))
         (Sink.spans ()))
  in
  Sink.clear ();
  fp

let test_span_tree_determinism () =
  let a = span_fingerprint () in
  let b = span_fingerprint () in
  check Alcotest.string "identical span trees" a b;
  check Alcotest.bool "non-trivial" true (String.length a > 0)

(* ------------------------------------------------------------------ *)
(* Events and spans in the one recorder *)

let emit ?(level = Event.Info) ~time ~subsystem msg =
  Sink.emit ~time ~level ~subsystem (note msg)

let test_sink_trace () =
  Sink.start ~clock:(fun () -> 42.0) ();
  Sink.emit ~subsystem:"test"
    (Event.Session_transition
       { peer = "65001"; from_state = "OpenConfirm"; to_state = "Established" });
  Sink.emit ~time:1.5 ~level:Event.Warn ~subsystem:"test.safety"
    (Event.Safety_verdict
       { client = "c1";
         prefix = Peering_net.Prefix.of_string_exn "8.8.8.0/24";
         verdict = Event.Rejected "hijack"
       });
  Sink.stop ();
  Sink.emit ~subsystem:"test" (note "after stop: dropped");
  let events = Sink.events () in
  check Alcotest.int "two events captured" 2 (List.length events);
  (match events with
  | [ a; b ] ->
    check Alcotest.(float 1e-9) "clock fallback" 42.0 a.Sink.time;
    check Alcotest.(float 1e-9) "explicit time" 1.5 b.Sink.time;
    (match a.Sink.ev with
    | Event.Session_transition { to_state; _ } ->
      check Alcotest.string "typed payload" "Established" to_state
    | _ -> Alcotest.fail "wrong event payload");
    check Alcotest.bool "rendered message mentions verdict" true
      (contains (Sink.message b) "hijack")
  | _ -> Alcotest.fail "event shape");
  check Alcotest.int "count_by_subsystem" 2
    (List.length (Sink.count_by_subsystem ()))

let test_trace_roundtrip () =
  Sink.start ();
  emit ~time:1.0 ~subsystem:"bgp" "session up";
  emit ~time:2.0 ~level:Event.Warn ~subsystem:"safety" "hijack blocked";
  Sink.stop ();
  let events = Sink.events () in
  let where ?subsystem ?needle () =
    List.length
      (List.filter
         (fun (e : Sink.event) ->
           Option.fold ~none:true ~some:(String.equal e.Sink.subsystem) subsystem
           && Option.fold ~none:true ~some:(contains (Sink.message e)) needle)
         events)
  in
  check Alcotest.int "count" 2 (List.length events);
  check Alcotest.int "filter subsystem" 1 (where ~subsystem:"bgp" ());
  check Alcotest.int "filter contains" 1 (where ~needle:"hijack" ());
  check Alcotest.int "filter both" 0
    (where ~subsystem:"bgp" ~needle:"hijack" ())

let test_trace_capacity () =
  Sink.start ();
  for i = 1 to capacity + 15 do
    emit ~time:(float_of_int i) ~level:Event.Debug ~subsystem:"x"
      (string_of_int i)
  done;
  Sink.stop ();
  check Alcotest.int "bounded" capacity (List.length (Sink.events ()));
  check Alcotest.int "dropped" 15 (Sink.dropped ());
  match Sink.events () with
  | e :: _ -> check Alcotest.string "oldest retained" (Event.to_string (note "16"))
      (Sink.message e)
  | [] -> Alcotest.fail "no events"

(* Events and spans share one capacity: eviction is oldest-first across
   both kinds and each eviction is counted once. *)
let test_shared_capacity () =
  Metrics.reset ();
  Sink.start ();
  let span name = Span.finish (Span.start ~time:0.0 name) ~time:1.0 in
  emit ~time:0.0 ~subsystem:"t" "e1";
  span "a";
  emit ~time:0.0 ~subsystem:"t" "e2";
  span "b";
  emit ~time:0.0 ~subsystem:"t" "e3";
  fill (capacity - 3);
  Sink.stop ();
  check Alcotest.(list string) "oldest events evicted"
    (List.map (fun m -> Event.to_string (note m)) [ "e2"; "e3" ])
    (List.filter_map
       (fun (e : Sink.event) ->
         if e.Sink.subsystem = "t" then Some (Sink.message e) else None)
       (Sink.events ()));
  check Alcotest.(list string) "oldest span evicted" [ "b" ]
    (List.map (fun (sp : Span.completed) -> sp.Span.name) (Sink.spans ()));
  check Alcotest.int "dropped counted once" 2 (Sink.dropped ());
  check Alcotest.int "obs.recorder.dropped row" 2
    (Metrics.counter_value "obs.recorder.dropped")

let test_off_after_stop () =
  Sink.start ();
  let late = Span.start ~time:0.0 "late" in
  Sink.stop ();
  check Alcotest.bool "inactive after stop" false (Sink.active ());
  Sink.emit ~subsystem:"t" (note "after stop");
  Span.finish late ~time:1.0;
  Span.with_span "after" (fun () -> ());
  check Alcotest.int "no events after stop" 0 (List.length (Sink.events ()));
  check Alcotest.int "no spans after stop" 0 (List.length (Sink.spans ()))

let test_start_clears () =
  Sink.start ();
  fill capacity;
  Span.with_span "old" (fun () -> ());
  check Alcotest.int "previous run dropped one" 1 (Sink.dropped ());
  Sink.start ();
  check Alcotest.int "events cleared" 0 (List.length (Sink.events ()));
  check Alcotest.int "spans cleared" 0 (List.length (Sink.spans ()));
  check Alcotest.int "drops cleared" 0 (Sink.dropped ());
  let sp = Span.start ~time:0.0 "fresh" in
  check Alcotest.int "span ids rewound" 1 (Span.context sp).Span.span;
  Sink.stop ()

(* [start ~clock] stamps clock-less events and spans; a later [start]
   without a clock does not inherit it. *)
let test_start_clock () =
  let stamps () =
    Sink.emit ~subsystem:"t" (note "clockless");
    Span.with_span "clockless" (fun () -> ());
    Sink.stop ();
    match (Sink.events (), Sink.spans ()) with
    | [ e ], [ sp ] -> (e.Sink.time, sp.Span.started, sp.Span.ended)
    | _ -> Alcotest.fail "recorder shape"
  in
  let stamp = Alcotest.(triple (float 0.0) (float 0.0) (float 0.0)) in
  Sink.start ~clock:(fun () -> 7.0) ();
  check stamp "stamped by the start clock" (7.0, 7.0, 7.0) (stamps ());
  Sink.start ();
  check stamp "default clock reads 0" (0.0, 0.0, 0.0) (stamps ())

(* ------------------------------------------------------------------ *)
(* Determinism: identical seeded runs produce identical snapshots *)

let run_scenario () =
  Metrics.reset ();
  let params =
    { Testbed.default_params with
      Testbed.world =
        { Peering_topo.Gen.default_params with
          Peering_topo.Gen.n_stub = 900;
          n_small_transit = 80;
          target_prefixes = 4000
        };
      university_sites = [ ("gatech01", 2) ]
    }
  in
  let t = Testbed.build ~params () in
  let experiment =
    match Testbed.new_experiment t ~id:"det" ~owner:"test" () with
    | Ok e -> e
    | Error m -> failwith m
  in
  let client = Client.create ~id:"det-client" ~experiment () in
  Testbed.connect_client t client ~sites:[ "amsterdam01" ];
  let prefix = List.hd experiment.Experiment.prefixes in
  ignore (Client.announce client prefix);
  Client.withdraw client prefix;
  Json.to_string ~indent:2 (Obs_report.to_json ())

let test_snapshot_determinism () =
  let a = run_scenario () in
  let b = run_scenario () in
  check Alcotest.string "identical snapshot JSON" a b;
  (* and the snapshot is real: the scenario moved the counters *)
  check Alcotest.bool "non-trivial" true
    (Metrics.counter_value "core.safety.accepted" > 0)

(* ------------------------------------------------------------------ *)
(* Obs_report rendering *)

let test_obs_report () =
  Metrics.reset ();
  let c = Metrics.counter "x.count" in
  let h = Metrics.histogram "x.hist" in
  Metrics.Counter.add c 7;
  List.iter (Metrics.Histogram.observe h) [ 1.0; 2.0; 3.0 ];
  let txt = Obs_report.render () in
  check Alcotest.bool "text mentions counter" true (contains txt "x.count");
  check Alcotest.bool "no drop, no dropped= field" false
    (contains txt "dropped=");
  let capped =
    Metrics.histogram ~sample_cap:2 "x.capped"
  in
  List.iter (Metrics.Histogram.observe capped) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check Alcotest.bool "text shows the histogram's drops" true
    (contains (Obs_report.render ()) "n=5 sum=15 p50=1.5 p90=1.9 p99=1.99 dropped=3");
  let json = Obs_report.to_json () in
  (match Json.member "x.count" json with
  | Some (Json.Int 7) -> ()
  | _ -> Alcotest.fail "counter json");
  match Json.member "x.hist" json with
  | Some hist ->
    check Alcotest.(option (float 1e-9)) "p50" (Some 2.0)
      (Option.bind (Json.member "p50" hist) Json.number_value)
  | None -> Alcotest.fail "hist json"

(* ------------------------------------------------------------------ *)
(* Capacity drops must surface as metric rows (the `stats` subcommand
   prints exactly these), not just as per-buffer counters. *)

let test_drop_rows () =
  Metrics.reset ();
  (* a full recorder, one more event and two spans -> three drops *)
  Sink.start ();
  fill (capacity + 1);
  List.iter (fun name -> Span.with_span name (fun () -> ())) [ "a"; "b" ];
  Sink.stop ();
  Sink.clear ();
  check Alcotest.int "obs.recorder.dropped row" 3
    (Metrics.counter_value "obs.recorder.dropped");
  let txt = Obs_report.render () in
  check Alcotest.bool "stats text carries the recorder drop row" true
    (contains txt "obs.recorder.dropped")

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ tc "roundtrip" `Quick test_json_roundtrip;
          tc "parse errors" `Quick test_json_parse_errors;
          tc "edge cases" `Quick test_json_edge_cases;
          tc "accessors" `Quick test_json_accessors;
          tc "to_string compact" `Quick test_json_compact_bytes;
          tc "to_string indented" `Quick test_json_indented_bytes
        ] );
      ( "metrics",
        [ tc "basics" `Quick test_metrics_basics;
          tc "histogram cap" `Quick test_metrics_histogram_cap;
          tc "reset and snapshot" `Quick test_metrics_reset_and_snapshot;
          tc "duplicate label keys" `Quick test_duplicate_label_keys;
          tc "family cache" `Quick test_family_cache;
          tc "hot-path allocation" `Quick test_family_hot_path_allocation
        ] );
      ( "spans",
        [ tc "contexts" `Quick test_span_contexts;
          tc "flight recorder drops" `Quick test_flight_recorder_drops;
          tc "ambient stamping" `Quick test_emit_ambient_stamp;
          tc "engine capture" `Quick test_engine_span_capture;
          tc "tree determinism" `Slow test_span_tree_determinism
        ] );
      ("events", [ tc "sink to trace" `Quick test_sink_trace ]);
      ( "trace",
        [ tc "roundtrip" `Quick test_trace_roundtrip;
          tc "capacity" `Quick test_trace_capacity
        ] );
      ( "recorder",
        [ tc "shared capacity" `Quick test_shared_capacity;
          tc "off after stop" `Quick test_off_after_stop;
          tc "start clears" `Quick test_start_clears;
          tc "start clock" `Quick test_start_clock
        ] );
      ( "report",
        [ tc "render and json" `Quick test_obs_report;
          tc "drop rows" `Quick test_drop_rows;
          tc "determinism" `Slow test_snapshot_determinism
        ] )
    ]
