open Peering_net

type event_kind =
  | Announce of Asn.t list
  | Withdraw

type event = {
  ev_time : float;
  ev_line : int;
  ev_prefix : Prefix.t;
  ev_kind : event_kind;
}

type t = {
  id : string;
  prefixes : Prefix.t list;
  asns : Asn.t list;
  may_poison : bool;
  events : event list;
}

type builder = {
  mutable b_id : string option;
  mutable b_prefixes : Prefix.t list;  (* reversed *)
  mutable b_asns : Asn.t list;  (* reversed *)
  mutable b_may_poison : bool;
  mutable b_events : event list;  (* reversed *)
}

let parse_schedule_tail b lineno prefix kind_of = function
  | "at" :: t :: rest ->
    let ev_time = Lines.float t in
    if ev_time < 0.0 then
      Lines.fail
        (Printf.sprintf "bad time %S (seconds from experiment start, need >= 0)"
           t);
    let kind = kind_of rest in
    b.b_events <-
      { ev_time; ev_line = lineno; ev_prefix = prefix; ev_kind = kind }
      :: b.b_events
  | _ -> Lines.fail "expected 'at <time>'"

let handle_line b lineno = function
  | Lines.Separator -> ()
  | Lines.Stmt { toks; _ } -> (
    match toks with
    | [ "experiment"; id ] ->
      if b.b_id <> None then Lines.fail "second experiment statement";
      b.b_id <- Some id
    | [ "prefix"; p ] -> b.b_prefixes <- Lines.prefix p :: b.b_prefixes
    | [ "asn"; a ] -> b.b_asns <- Lines.asn a :: b.b_asns
    | [ "may-poison" ] -> b.b_may_poison <- true
    | "announce" :: p :: rest ->
      let prefix = Lines.prefix p in
      parse_schedule_tail b lineno prefix
        (function
          | [] -> Announce []
          | "path" :: asns when asns <> [] -> Announce (List.map Lines.asn asns)
          | _ -> Lines.fail "expected 'path <asn> ...' after the time")
        rest
    | "withdraw" :: p :: rest ->
      let prefix = Lines.prefix p in
      parse_schedule_tail b lineno prefix
        (function
          | [] -> Withdraw
          | _ -> Lines.fail "unexpected tokens after withdraw time")
        rest
    | [] -> ()
    | kw :: _ -> Lines.fail (Printf.sprintf "unknown statement %S" kw))

let parse text =
  let b =
    { b_id = None;
      b_prefixes = [];
      b_asns = [];
      b_may_poison = false;
      b_events = []
    }
  in
  Lines.read (handle_line b)
    (fun () ->
      match b.b_id with
      | None -> Lines.fail "missing 'experiment <id>' statement"
      | Some id ->
        { id;
          prefixes = List.rev b.b_prefixes;
          asns = List.rev b.b_asns;
          may_poison = b.b_may_poison;
          events = List.rev b.b_events
        })
    text
