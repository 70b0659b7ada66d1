let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let stddev l =
  match l with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean l in
    let var = mean (List.map (fun x -> (x -. m) ** 2.0) l) in
    sqrt var

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

let histogram ~bins l =
  if l = [] then invalid_arg "Stats.histogram: empty sample";
  if bins < 1 then invalid_arg "Stats.histogram: bins < 1";
  let lo = List.fold_left Float.min infinity l in
  let hi = List.fold_left Float.max neg_infinity l in
  let width = if hi = lo then 1.0 else (hi -. lo) /. float_of_int bins in
  let counts = Array.make bins 0 in
  List.iter
    (fun x ->
      let i = int_of_float ((x -. lo) /. width) in
      let i = max 0 (min (bins - 1) i) in
      counts.(i) <- counts.(i) + 1)
    l;
  List.init bins (fun i ->
      ( lo +. (float_of_int i *. width),
        lo +. (float_of_int (i + 1) *. width),
        counts.(i) ))

let cdf_points l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  let points = ref [] in
  Array.iteri
    (fun i x ->
      let frac = float_of_int (i + 1) /. float_of_int n in
      match !points with
      | (v, _) :: rest when v = x -> points := (x, frac) :: rest
      | _ -> points := (x, frac) :: !points)
    a;
  List.rev !points
