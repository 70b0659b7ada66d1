type event = {
  time : float;
  level : Event.level;
  subsystem : string;
  span : Span.context option;
  ev : Event.t;
}

(* Events and completed spans share one queue, so one capacity bounds
   both and eviction is oldest-first across the two kinds. *)
type entry = Ev of event | Sp of Span.completed

(* Drops are also a metric row so `peering_cli stats` surfaces them
   without callers having to poll [dropped]. *)
let m_dropped = Metrics.counter "obs.recorder.dropped"

let capacity = 100_000

let event_clock = ref (fun () -> 0.0)
let buf : entry Queue.t = Queue.create ()
let n_dropped = ref 0

let push e =
  Queue.push e buf;
  if Queue.length buf > capacity then begin
    ignore (Queue.pop buf);
    incr n_dropped;
    Metrics.Counter.inc m_dropped
  end

let active = Span.enabled

let emit ?time ?(level = Event.Info) ?span ~subsystem ev =
  if Span.enabled () then begin
    let span = match span with Some _ as s -> s | None -> Span.current () in
    let time = match time with Some t -> t | None -> !event_clock () in
    push (Ev { time; level; subsystem; span; ev })
  end

let () = Span.set_recorder (fun sp -> if Span.enabled () then push (Sp sp))

let clear () =
  Queue.clear buf;
  n_dropped := 0

let start ?(clock = fun () -> 0.0) () =
  clear ();
  event_clock := clock;
  Span.set_clock clock;
  Span.reset ();
  Span.set_enabled true

let stop () = Span.set_enabled false

let events () =
  Queue.fold (fun acc -> function Ev e -> e :: acc | Sp _ -> acc) [] buf
  |> List.rev

let spans () =
  Queue.fold (fun acc -> function Sp s -> s :: acc | Ev _ -> acc) [] buf
  |> List.rev

let dropped () = !n_dropped
let message e = Event.to_string e.ev

let count_by_subsystem () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.replace tbl e.subsystem
        (1 + Option.value (Hashtbl.find_opt tbl e.subsystem) ~default:0))
    (events ());
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
