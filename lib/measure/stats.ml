module Json = Peering_obs.Json

let percentile p l =
  if l = [] then invalid_arg "Stats.percentile: empty sample";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
  end

let median l = percentile 50.0 l

type slo = {
  slo_name : string;
  budget_s : float;
  p99_s : float;
  samples : int;
  dropped : int;
  burn : float;
  met : bool;
}

let slo ~name ~budget_s ~dropped l =
  let p99_s = if l = [] then 0.0 else percentile 99.0 l in
  { slo_name = name; budget_s; p99_s; samples = List.length l; dropped;
    burn = p99_s /. budget_s;
    met = l <> [] && p99_s <= budget_s
  }

let slo_json v =
  Json.Obj
    [ ("name", Json.String v.slo_name);
      ("budget_s", Json.Float v.budget_s);
      ("p99_s", Json.Float v.p99_s);
      ("samples", Json.Int v.samples);
      ("dropped", Json.Int v.dropped);
      ("burn", Json.Float v.burn);
      ("met", Json.Bool v.met)
    ]

let slo_header =
  Printf.sprintf "%-14s %10s %10s %8s %8s %8s  %s" "slo" "p99_s" "budget_s"
    "samples" "dropped" "burn" "met"

let slo_row v =
  Printf.sprintf "%-14s %10.3f %10.3f %8d %8d %8.3f  %b" v.slo_name v.p99_s
    v.budget_s v.samples v.dropped v.burn v.met
