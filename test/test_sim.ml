open Peering_sim

let check = Alcotest.check
let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let draw seed = List.init 20 (fun _ -> Rng.int (Rng.create seed) 1000) in
  (* same seed, same stream *)
  let a = Rng.create 99 and b = Rng.create 99 in
  let sa = List.init 50 (fun _ -> Rng.int a 1_000_000) in
  let sb = List.init 50 (fun _ -> Rng.int b 1_000_000) in
  check Alcotest.(list int) "same seed same stream" sa sb;
  check Alcotest.bool "different seeds differ" true (draw 1 <> draw 2)

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of bounds: %d" v;
    let f = Rng.float rng 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.failf "float out of bounds: %f" f
  done

let test_rng_split_independent () =
  let rng = Rng.create 5 in
  let child = Rng.split rng in
  let a = List.init 10 (fun _ -> Rng.int child 1000) in
  (* drawing from the parent must not change the child's past *)
  let rng2 = Rng.create 5 in
  let child2 = Rng.split rng2 in
  ignore (Rng.int rng2 1000);
  let b = List.init 10 (fun _ -> Rng.int child2 1000) in
  check Alcotest.(list int) "split streams reproducible" a b

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 100 Fun.id) sorted

let test_rng_zipf () =
  let rng = Rng.create 13 in
  let sampler = Rng.zipf_sampler ~n:100 ~s:1.2 in
  let counts = Array.make 101 0 in
  for _ = 1 to 10_000 do
    let r = sampler rng in
    if r < 1 || r > 100 then Alcotest.failf "zipf out of range: %d" r;
    counts.(r) <- counts.(r) + 1
  done;
  (* rank 1 must dominate rank 50 under a Zipf law *)
  check Alcotest.bool "head heavier than tail" true (counts.(1) > counts.(50) * 5)

let test_rng_bernoulli () =
  let rng = Rng.create 17 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. 10_000.0 in
  check Alcotest.bool "p in [0.27, 0.33]" true (p > 0.27 && p < 0.33)

let test_rng_sample () =
  let rng = Rng.create 19 in
  let l = List.init 20 Fun.id in
  let s = Rng.sample rng 5 l in
  check Alcotest.int "size" 5 (List.length s);
  check Alcotest.int "distinct" 5 (List.length (List.sort_uniq Int.compare s));
  check Alcotest.int "oversample capped" 20
    (List.length (Rng.sample rng 50 l))

(* ------------------------------------------------------------------ *)
(* Event_queue *)

let test_queue_order () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3.0 "c";
  Event_queue.push q ~time:1.0 "a";
  Event_queue.push q ~time:2.0 "b";
  let pop () = match Event_queue.pop q with Some (_, x) -> x | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  check Alcotest.(list string) "order" [ "a"; "b"; "c" ]
    [ first; second; third ];
  check Alcotest.bool "empty" true (Event_queue.is_empty q)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.push q ~time:1.0 i
  done;
  let out = ref [] in
  for _ = 1 to 10 do
    match Event_queue.pop q with
    | Some (_, x) -> out := x :: !out
    | None -> ()
  done;
  check Alcotest.(list int) "fifo on equal time" (List.init 10 Fun.id)
    (List.rev !out)

let test_queue_interleaved () =
  let q = Event_queue.create () in
  for i = 0 to 999 do
    Event_queue.push q ~time:(float_of_int ((i * 7919) mod 1000)) i
  done;
  let rec drain last n =
    match Event_queue.pop q with
    | None -> n
    | Some (t, _) ->
      if t < last then Alcotest.failf "out of order: %f after %f" t last;
      drain t (n + 1)
  in
  check Alcotest.int "all drained in order" 1000 (drain neg_infinity 0)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_clock () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := (2, Engine.now e) :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := (1, Engine.now e) :: !log);
  Engine.run e;
  check Alcotest.(list (pair int (float 1e-9))) "clock advances"
    [ (1, 1.0); (2, 2.0) ]
    (List.rev !log)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let fired = ref 0.0 in
  Engine.schedule e ~delay:1.0 (fun () ->
      Engine.schedule e ~delay:0.5 (fun () -> fired := Engine.now e));
  Engine.run e;
  check Alcotest.(float 1e-9) "nested event time" 1.5 !fired

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count)
  done;
  Engine.run ~until:5.0 e;
  check Alcotest.int "only first five" 5 !count;
  check Alcotest.int "rest still queued" 5 (Engine.pending e);
  Engine.run e;
  check Alcotest.int "all" 10 !count

let test_engine_run_for () =
  let e = Engine.create () in
  Engine.run_for e 3.0;
  check Alcotest.(float 1e-9) "clock moved" 3.0 (Engine.now e);
  Engine.run_for e 2.0;
  check Alcotest.(float 1e-9) "again" 5.0 (Engine.now e)

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.run_for e 5.0;
  (match Engine.schedule_at e ~time:1.0 (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "scheduling in the past accepted");
  match Engine.schedule e ~delay:(-1.0) (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative delay accepted"

(* NaN compares false both ways, so a NaN event time would misorder the
   heap and a NaN horizon would run every queued event. *)
let test_engine_nan_rejected () =
  let e = Engine.create () in
  let log = ref [] in
  List.iter
    (fun d ->
      match Engine.schedule e ~delay:d (fun () -> log := Engine.now e :: !log) with
      | () -> ()
      | exception Invalid_argument _ -> ())
    [ 5.0; 1.0; Float.nan; 3.0; 2.0; 4.0; 0.5 ];
  Engine.run e;
  check Alcotest.(list (float 0.0)) "events run in time order"
    [ 0.5; 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !log);
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s accepted" name
  in
  rejects "NaN delay" (fun () -> Engine.schedule e ~delay:Float.nan ignore);
  rejects "NaN time" (fun () -> Engine.schedule_at e ~time:Float.nan ignore);
  let fired = ref false in
  Engine.schedule e ~delay:10.0 (fun () -> fired := true);
  rejects "NaN horizon" (fun () -> Engine.run_for e Float.nan);
  check Alcotest.bool "NaN horizon runs nothing" false !fired;
  check Alcotest.(float 0.0) "clock unchanged" 5.0 (Engine.now e)

let test_engine_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec reschedule () =
    incr count;
    Engine.schedule e ~delay:1.0 reschedule
  in
  Engine.schedule e ~delay:1.0 reschedule;
  (* a self-rescheduling event would run forever; max_events bounds it *)
  Engine.run ~max_events:25 e;
  check Alcotest.int "bounded" 25 !count

let test_rng_distributions () =
  let rng = Rng.create 23 in
  (* exponential: mean close to parameter *)
  let samples = List.init 5000 (fun _ -> Rng.exponential rng ~mean:10.0) in
  let mean = List.fold_left ( +. ) 0.0 samples /. 5000.0 in
  check Alcotest.bool "exponential mean" true (mean > 9.0 && mean < 11.0);
  check Alcotest.bool "exponential nonneg" true
    (List.for_all (fun x -> x >= 0.0) samples)

let () =
  Alcotest.run "sim"
    [ ( "rng",
        [ tc "determinism" `Quick test_rng_determinism;
          tc "bounds" `Quick test_rng_bounds;
          tc "split" `Quick test_rng_split_independent;
          tc "shuffle" `Quick test_rng_shuffle_permutation;
          tc "zipf" `Quick test_rng_zipf;
          tc "bernoulli" `Quick test_rng_bernoulli;
          tc "sample" `Quick test_rng_sample
        ] );
      ( "event-queue",
        [ tc "order" `Quick test_queue_order;
          tc "fifo ties" `Quick test_queue_fifo_ties;
          tc "interleaved" `Quick test_queue_interleaved
        ] );
      ( "engine",
        [ tc "clock" `Quick test_engine_clock;
          tc "nested" `Quick test_engine_nested_schedule;
          tc "until" `Quick test_engine_until;
          tc "run_for" `Quick test_engine_run_for;
          tc "past rejected" `Quick test_engine_past_rejected;
          tc "NaN rejected" `Quick test_engine_nan_rejected;
          tc "max events" `Quick test_engine_max_events;
          tc "distributions" `Quick test_rng_distributions
        ] )
    ]
