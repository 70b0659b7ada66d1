type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = Int64.of_int seed }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = mix seed }

let int t n =
  if n <= 0 then invalid_arg "Rng.int";
  (* Use the top bits; modulo bias is negligible for our n (< 2^40). *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod n

let float t x =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L
let bernoulli t p = float t 1.0 < p

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample t k l =
  let a = Array.of_list l in
  shuffle t a;
  let k = min k (Array.length a) in
  Array.to_list (Array.sub a 0 k)

let zipf_cdf n s =
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    cdf.(i) <- !total
  done;
  let z = !total in
  Array.map (fun x -> x /. z) cdf

let sample_cdf cdf u =
  (* Binary search for the first index with cdf.(i) >= u. *)
  let n = Array.length cdf in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then go lo mid else go (mid + 1) hi
  in
  go 0 (n - 1) + 1

let zipf_sampler ~n ~s =
  let cdf = zipf_cdf n s in
  fun t -> sample_cdf cdf (float t 1.0)

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u
