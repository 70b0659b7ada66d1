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
  burn : float;
  met : bool;
}

let slo ~name ~budget_s l =
  let p99_s = if l = [] then 0.0 else percentile 99.0 l in
  { slo_name = name; budget_s; p99_s; samples = List.length l;
    burn = p99_s /. budget_s;
    met = p99_s <= budget_s
  }
