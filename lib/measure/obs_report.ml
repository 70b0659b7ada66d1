module Metrics = Peering_obs.Metrics
module Json = Peering_obs.Json

let percentile_opt p samples =
  match samples with [] -> None | l -> Some (Stats.percentile p l)

let row_json (r : Metrics.row) =
  match r.Metrics.value with
  | Metrics.Counter_v n -> Json.Int n
  | Metrics.Gauge_v { value; hwm } ->
    Json.Obj [ ("value", Json.Float value); ("hwm", Json.Float hwm) ]
  | Metrics.Histogram_v { count; sum; samples; dropped } ->
    let pct p =
      match percentile_opt p samples with
      | Some v -> Json.Float v
      | None -> Json.Null
    in
    Json.Obj
      [ ("count", Json.Int count);
        ("sum", Json.Float sum);
        ("p50", pct 50.0);
        ("p90", pct 90.0);
        ("p99", pct 99.0);
        ("dropped_samples", Json.Int dropped)
      ]

let to_json () =
  let rows = Metrics.snapshot () in
  Json.Obj (List.map (fun r -> (Metrics.row_name r, row_json r)) rows)

let render () =
  let rows = Metrics.snapshot ~include_volatile:true () in
  let key_width =
    List.fold_left
      (fun acc r -> max acc (String.length (Metrics.row_name r)))
      0 rows
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (r : Metrics.row) ->
      let rendered =
        match r.Metrics.value with
        | Metrics.Counter_v n -> string_of_int n
        | Metrics.Gauge_v { value; hwm } ->
          Printf.sprintf "%g (hwm %g)" value hwm
        | Metrics.Histogram_v { count; sum; samples; dropped } ->
          let pct p =
            match percentile_opt p samples with
            | Some v -> Printf.sprintf "%g" v
            | None -> "-"
          in
          Printf.sprintf "n=%d sum=%g p50=%s p90=%s p99=%s%s" count sum
            (pct 50.0) (pct 90.0) (pct 99.0)
            (if dropped > 0 then Printf.sprintf " dropped=%d" dropped else "")
      in
      Buffer.add_string buf
        (Printf.sprintf "%-*s  %s\n" key_width (Metrics.row_name r) rendered))
    rows;
  Buffer.contents buf
