(* Pure queries over recorded span dumps; see blast.mli. *)

type entity = {
  value : string;
  first : float;
  last : float;
  spans : int;
}

let roots spans ~name =
  List.filter
    (fun (sp : Span.completed) ->
      sp.Span.name = name && sp.Span.ctx.Span.span = sp.Span.ctx.Span.trace)
    spans

let in_traces spans root_spans =
  let traces = Hashtbl.create 8 in
  List.iter
    (fun (sp : Span.completed) ->
      Hashtbl.replace traces sp.Span.ctx.Span.trace ())
    root_spans;
  List.filter
    (fun (sp : Span.completed) -> Hashtbl.mem traces sp.Span.ctx.Span.trace)
    spans

let rollup spans ~key =
  let tbl : (string, float * float * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (sp : Span.completed) ->
      match List.assoc_opt key sp.Span.attrs with
      | None -> ()
      | Some value ->
        let first, last, n =
          match Hashtbl.find_opt tbl value with
          | None -> (sp.Span.started, sp.Span.ended, 1)
          | Some (f, l, n) ->
            (Float.min f sp.Span.started, Float.max l sp.Span.ended, n + 1)
        in
        Hashtbl.replace tbl value (first, last, n))
    spans;
  Hashtbl.fold
    (fun value (first, last, spans) acc -> { value; first; last; spans } :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.value b.value)
