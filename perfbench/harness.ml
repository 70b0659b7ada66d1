(* Shared plumbing for the perf benchmark: the monotonic clock, order
   statistics, span accounting for traced runs, GC / RSS / heap
   readings, host metadata and the result every workload returns. *)

(* ------------------------------------------------------------------ *)
(* Clock: bechamel's CLOCK_MONOTONIC reading, in integer nanoseconds. *)

let now_ns () = Monotonic_clock.now ()
let ns_since t0 = Int64.to_int (Int64.sub (now_ns ()) t0)
let s_of_ns ns = float_of_int ns *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, ns_since t0)

module Stats = Peering_measure.Stats

let median = function [] -> 0.0 | xs -> Stats.median xs

(* Quiet-host figures. The host's speed swings by up to 1.6x in phases
   of seconds (other tenants of the machine), and one phase can cover
   most of a run, so a run's median op follows the phase it landed in.
   The fastest tenth of samples spread over the whole run does not:
   every run has quiet moments. So each timed end-to-end metric is the
   10th percentile of its samples. *)
let quiet = function [] -> 0.0 | xs -> Stats.percentile 10.0 xs

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Run configuration, straight from the command line. *)

type cfg = {
  seed : int;
  seconds : int;
  trace : bool;
  tiny : bool;  (** self-check scale: a handful of ops *)
}

(* Op counts are fixed by [--seconds] and a nominal per-workload rate,
   never by the clock, so retained state and every count are the same
   on a fast host and a slow one. *)
let op_count cfg ~per_s ~tiny =
  if cfg.tiny then tiny else max 1 (int_of_float (per_s *. fi cfg.seconds))

(* ------------------------------------------------------------------ *)
(* Spans for traced runs. Each layer accumulates its total and self
   time (span minus the child spans nested in it) and its call count;
   [with_span] nests, so a layer timed inside another is subtracted
   from the outer layer's self time. Replayed layers (timed outside the
   op on the same inputs) are credited with [credit]. *)

type layer = {
  lname : string;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable calls : int;
}

let layer lname = { lname; total_ns = 0; self_ns = 0; calls = 0 }

(* Nanoseconds covered by child spans of the span currently open. *)
let child_ns = ref 0

let with_span l f =
  let outer = !child_ns in
  child_ns := 0;
  let t0 = now_ns () in
  let r = f () in
  let d = ns_since t0 in
  l.total_ns <- l.total_ns + d;
  l.self_ns <- l.self_ns + d - !child_ns;
  l.calls <- l.calls + 1;
  child_ns := outer + d;
  r

let credit l ~ns ~calls =
  l.total_ns <- l.total_ns + ns;
  l.self_ns <- l.self_ns + ns;
  l.calls <- l.calls + calls

(* Per-op span rows, kept in memory during the run and written out once
   at the end: (op index, layer, self ns, calls) for every layer that
   did work in the op. *)
type span_log = {
  layers : layer list;
  mutable last : (int * int) list;  (** self ns, calls at the previous op end *)
  mutable rows : (int * string * int * int) list;
}

let span_log layers =
  { layers; last = List.map (fun _ -> (0, 0)) layers; rows = [] }

let end_op log i =
  log.last <-
    List.map2
      (fun l (s0, c0) ->
        if l.calls > c0 then
          log.rows <- (i, l.lname, l.self_ns - s0, l.calls - c0) :: log.rows;
        (l.self_ns, l.calls))
      log.layers log.last


(* ------------------------------------------------------------------ *)
(* Memory and GC. *)

let mb_of_words w = fi w *. fi (Sys.word_size / 8) /. 1048576.0
let reachable_mb x = mb_of_words (Obj.reachable_words (Obj.repr x))

(* Peak resident set size as the kernel saw it (VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> fi kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> failwith "perfbench: no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Median of the retained samples of the existing volatile
   bgp.decision.latency_s histogram (Sys.time-timed, first 4,096 runs
   since the last Metrics.reset), in µs. *)
let decision_p50_us () =
  let module Metrics = Peering_obs.Metrics in
  List.concat_map
    (fun (r : Metrics.row) ->
      match r.Metrics.value with
      | Metrics.Histogram_v { samples; _ } when r.Metrics.name = "bgp.decision.latency_s" ->
        samples
      | _ -> [])
    (Metrics.snapshot ~include_volatile:true ())
  |> median
  |> ( *. ) 1e6

type gc_counts = { minor : float; promoted : float; majors : int }

let gc_counts () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; promoted = s.Gc.promoted_words;
    majors = s.Gc.major_collections }

let gc_zero = { minor = 0.0; promoted = 0.0; majors = 0 }

(* Time one op, adding what it allocated to [gc]. *)
let timed_op gc f =
  let g0 = gc_counts () in
  let r, ns = timed f in
  let g1 = gc_counts () in
  gc :=
    { minor = !gc.minor +. g1.minor -. g0.minor;
      promoted = !gc.promoted +. g1.promoted -. g0.promoted;
      majors = !gc.majors + g1.majors - g0.majors
    };
  (r, ns)

(* ------------------------------------------------------------------ *)
(* Host drift: a fixed CPU-only spin timed at the start and end of each
   run. Reported next to the results so a slow host is visible; it
   never scales any metric. *)

let spin n =
  let r = ref 0 in
  for i = 1 to n do
    r := !r + (i land 3)
  done;
  !r

let reference_loop () =
  let r, ns = timed (fun () -> spin (Sys.opaque_identity 100_000_000)) in
  ignore (Sys.opaque_identity r);
  s_of_ns ns

(* ------------------------------------------------------------------ *)
(* Set-up: built [reps] times, each timed from a compacted heap, the
   last one kept. The median is the reported set-up time; the heap is
   compacted again before the first timed op so earlier builds'
   garbage is not collected on the clock. *)

let setup cfg ~reps build =
  let reps = if cfg.tiny then 1 else reps in
  let rec go i acc =
    Gc.compact ();
    let v, ns = timed build in
    let acc = s_of_ns ns :: acc in
    if i + 1 < reps then go (i + 1) acc else (v, acc)
  in
  let v, times = go 0 [] in
  Gc.compact ();
  (v, median times)

(* Reads are timed in batches of 1,000, never one call at a time.
   [query i] performs the i-th of [batches * batch] precomputed reads.
   The batches are spread evenly over the ops from op [first] on (once
   the workload's state has filled), so they sample the run's host
   conditions the way the ops do; the reported figure is the 10th
   percentile per-read time over the batches. *)
type reads = {
  batches : int;
  batch : int;
  query : int -> unit;
  mutable next : int;
  mutable per_read : float list;
}

let read_batches cfg = if cfg.tiny then 2 else 200
let n_queries cfg = read_batches cfg * 1000

let reads cfg query =
  { batches = read_batches cfg; batch = 1000; query; next = 0; per_read = [] }

let read_batch r =
  let b = r.next in
  r.next <- b + 1;
  let (), ns =
    timed (fun () ->
        for i = 0 to r.batch - 1 do
          r.query ((b * r.batch) + i)
        done)
  in
  r.per_read <- (fi ns /. fi r.batch) :: r.per_read

let reads_after r ~first ~n_ops i =
  if i >= first then
    let due = (i - first + 1) * r.batches / (n_ops - first) in
    while r.next < due do
      read_batch r
    done

let read_ns r =
  while r.next < r.batches do
    read_batch r
  done;
  quiet r.per_read

(* ------------------------------------------------------------------ *)
(* Results. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type outcome = {
  setup_s : float;  (** median set-up time *)
  ops : (int * int) list;
      (** per op, newest first: (ns, routes it installed) *)
  read_ns : float;  (** 10th percentile per-read time over the read batches *)
  state_mb : float;  (** retained state after the last op *)
  failed : int;  (** refused ops plus failed output checks *)
  layers : (string * float) list;
      (** per-layer values; units come from the catalogue in
          [Perfbench], which also fills in zeros for idle layers *)
  report : string list;  (** extra human-readable lines *)
  centres : (string * float) list;
      (** traced runs: self ns of each cost centre over the run *)
}

(* Traced runs write their span rows to
   .perfbench-out/spans-<workload>-seed<N>.tsv in the working directory
   (the checkout root); self-check runs write nothing. *)
let write_log cfg workload log =
  if not cfg.tiny then begin
    (try Sys.mkdir ".perfbench-out" 0o755 with Sys_error _ -> ());
    let oc =
      open_out (Printf.sprintf ".perfbench-out/spans-%s-seed%d.tsv" workload cfg.seed)
    in
    output_string oc "op\tlayer\tself_ns\tcalls\n";
    List.iter
      (fun (i, name, ns, calls) -> Printf.fprintf oc "%d\t%s\t%d\t%d\n" i name ns calls)
      (List.rev log.rows);
    close_out oc
  end

let op_ms o = List.map (fun (ns, _) -> fi ns *. 1e-6) o.ops

(* The end-to-end block every workload reports, in quiet-host figures. *)
let end_to_end o =
  [ m "setup_s" "s" o.setup_s;
    m "op_p10_ms" "ms" (quiet (op_ms o));
    m "read_p10_ns" "ns" o.read_ns;
    m "peak_rss_mb" "MB" (peak_rss_mb ());
    m "state_mb" "MB" o.state_mb
  ]

(* Human-only figures, which follow the host's phases: the median op,
   the busy-time throughputs (reads and checks between ops are off the
   clock), p90 only where at least 100 ops give it ten samples beyond
   it, and the error rate. *)
let extra_lines o =
  let n = List.length o.ops and failed = o.failed in
  let busy_s = s_of_ns (List.fold_left (fun s (ns, _) -> s + ns) 0 o.ops) in
  let routes = List.fold_left (fun s (_, r) -> s + r) 0 o.ops in
  [ Printf.sprintf "op_p50_ms %.4f ms; busy-time ops_per_s %.4f, routes_per_s %.1f"
      (median (op_ms o)) (ratio (fi n) busy_s) (ratio (fi routes) busy_s) ]
  @ (if n >= 100 then
       [ Printf.sprintf "op_p90_ms %.4f ms (%d ops)" (Stats.percentile 90.0 (op_ms o)) n ]
     else [ Printf.sprintf "op_p90_ms n/a (%d ops < 100)" n ])
  @ [ Printf.sprintf "error_rate %.6f (%d failed of %d attempted)"
        (ratio (fi failed) (fi n)) failed n ]
