type id = int

type context = { trace : id; span : id; parent : id option }

type completed = {
  ctx : context;
  name : string;
  started : float;
  ended : float;
  attrs : (string * string) list;
}

type t = {
  s_ctx : context;
  s_name : string;
  s_started : float;
  s_attrs : (string * string) list;
  mutable s_open : bool;
}

let collecting = ref false
let enabled () = !collecting

let next_id = ref 1
let ambient : context option ref = ref None
let recorder : (completed -> unit) ref = ref (fun _ -> ())

let set_recorder f = recorder := f

let set_enabled on =
  collecting := on;
  if not on then ambient := None

let reset () =
  next_id := 1;
  ambient := None

let mint () =
  let i = !next_id in
  incr next_id;
  i

let null_context = { trace = 0; span = 0; parent = None }

let null_span =
  { s_ctx = null_context; s_name = ""; s_started = 0.0; s_attrs = [];
    s_open = false }

let current () = !ambient

let start ?(attrs = []) ~time name =
  if not !collecting then null_span
  else
    let span = mint () in
    let ctx =
      match !ambient with
      | Some p -> { trace = p.trace; span; parent = Some p.span }
      | None -> { trace = span; span; parent = None }
    in
    { s_ctx = ctx;
      s_name = name;
      s_started = time;
      s_attrs = attrs;
      s_open = true
    }

let context t = t.s_ctx

let finish ?(attrs = []) ~time t =
  if t.s_open then begin
    t.s_open <- false;
    !recorder
      { ctx = t.s_ctx;
        name = t.s_name;
        started = t.s_started;
        ended = time;
        attrs = t.s_attrs @ attrs
      }
  end

let with_current ctx f =
  let saved = !ambient in
  ambient := ctx;
  Fun.protect ~finally:(fun () -> ambient := saved) f

let clock = ref (fun () -> 0.0)
let set_clock f = clock := f

let with_span ?attrs ?time name f =
  if not !collecting then f ()
  else begin
    let time = Option.value time ~default:!clock in
    let sp = start ?attrs ~time:(time ()) name in
    Fun.protect
      ~finally:(fun () -> finish ~time:(time ()) sp)
      (fun () -> with_current (Some sp.s_ctx) f)
  end
