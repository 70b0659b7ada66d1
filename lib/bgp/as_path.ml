open Peering_net

type segment = Seq of Asn.t list | Set of Asn.t list

(* The 4-octet AS_PATH wire body. Every value is well formed: each
   segment's type byte is [seg_set] or [seg_seq], and the segments'
   counts cover the string exactly. *)
type t = string

let seg_set = 1
let seg_seq = 2
let max_count = 255

(* Segment header and ASN accessors; [i] is a segment's offset, [j] an
   ASN's. *)
let ty p i = String.get_uint8 p i
let count p i = String.get_uint8 p (i + 1)
let next p i = i + 2 + (4 * count p i)
let raw p j = Int32.to_int (String.get_int32_be p j) land 0xFFFF_FFFF
let asn_at p j = Asn.of_int (raw p j)

let set_header b i ty n =
  Bytes.set_uint8 b i ty;
  Bytes.set_uint8 b (i + 1) n

let set_asn b j a = Bytes.set_int32_be b j (Int32.of_int (Asn.to_int a))

let empty = ""

(* The bytes a segment of [n] ASNs takes once split at [max_count]. *)
let segment_bytes n =
  let headers = if n = 0 then 1 else (n + max_count - 1) / max_count in
  (2 * headers) + (4 * n)

(* [write_segment b i ty l n] writes the [n] ASNs of [l] at [i] as
   segments of type [ty] of at most [max_count] each (one empty segment
   for [n = 0]) and returns the offset past them; [write_asns] writes
   [k] more into the current segment. Top-level rather than local, so
   that building a path allocates only its string. *)
let rec write_segment b i ty l n =
  let k = min max_count n in
  set_header b i ty k;
  write_asns b (i + 2) ty l k n

and write_asns b j ty l k n =
  if k = 0 then if n > 0 then write_segment b j ty l n else j
  else
    match l with
    | a :: rest ->
      set_asn b j a;
      write_asns b (j + 4) ty rest (k - 1) (n - 1)
    | [] -> assert false

let rec write_segments b i = function
  | [] -> ()
  | Seq l :: rest -> write_segments b (write_segment b i seg_seq l (List.length l)) rest
  | Set l :: rest -> write_segments b (write_segment b i seg_set l (List.length l)) rest

let of_segments segs =
  let size =
    List.fold_left
      (fun acc (Seq l | Set l) -> acc + segment_bytes (List.length l))
      0 segs
  in
  let b = Bytes.create size in
  write_segments b 0 segs;
  Bytes.unsafe_to_string b

let of_asns = function [] -> empty | l -> of_segments [ Seq l ]

let segments p =
  let len = String.length p in
  let rec from i =
    if i >= len then []
    else
      let l = List.init (count p i) (fun k -> asn_at p (i + 2 + (4 * k))) in
      (if ty p i = seg_seq then Seq l else Set l) :: from (next p i)
  in
  from 0

(* Reads the ASNs at [j .. stop), then the segment at [stop]. *)
let to_asns p =
  let len = String.length p in
  let rec from j stop =
    if j < stop then asn_at p j :: from (j + 4) stop
    else if stop >= len then []
    else from (stop + 2) (next p stop)
  in
  from 0 0

let prepend a p =
  let len = String.length p in
  if len > 0 && ty p 0 = seg_seq && count p 0 < max_count then begin
    let b = Bytes.create (len + 4) in
    set_header b 0 seg_seq (count p 0 + 1);
    set_asn b 2 a;
    Bytes.blit_string p 2 b 6 (len - 2);
    Bytes.unsafe_to_string b
  end
  else begin
    let b = Bytes.create (len + 6) in
    set_header b 0 seg_seq 1;
    set_asn b 2 a;
    Bytes.blit_string p 0 b 6 len;
    Bytes.unsafe_to_string b
  end

let rec prepend_n a n p = if n <= 0 then p else prepend_n a (n - 1) (prepend a p)

(* The accessors below walk the string with top-level loops over [p]
   and offsets, so reading a path allocates nothing but the result. *)
let rec length_from p i acc =
  if i >= String.length p then acc
  else length_from p (next p i) (if ty p i = seg_seq then acc + count p i else acc + 1)

let length p = length_from p 0 0

(* [j] is the next ASN, [stop] the end of its segment. *)
let rec mem_from x p j stop =
  if j < stop then raw p j = x || mem_from x p (j + 4) stop
  else stop < String.length p && mem_from x p (stop + 2) (next p stop)

let mem a p = mem_from (Asn.to_int a) p 0 0

let rec last_segment p i = if next p i >= String.length p then i else last_segment p (next p i)

let origin_asn p =
  if String.length p = 0 then None
  else
    let i = last_segment p 0 in
    if ty p i = seg_seq && count p i > 0 then Some (asn_at p (String.length p - 4))
    else None

(* The first ASN of a leading sequence, or of the sequence after a
   leading empty one. *)
let neighbor_asn p =
  let len = String.length p in
  if len = 0 || ty p 0 <> seg_seq then None
  else if count p 0 > 0 then Some (asn_at p 2)
  else if len > 2 && ty p 2 = seg_seq && count p 2 > 0 then Some (asn_at p 4)
  else None

(* The segment-list order: not byte order, which would compare counts
   before ASNs and put AS_SET (1) before AS_SEQUENCE (2). [i] and [j]
   are the offsets of the segments compared, [k] the ASN within them. *)
let rec compare_segments p q i j =
  if i >= String.length p then if j >= String.length q then 0 else -1
  else if j >= String.length q then 1
  else if ty p i <> ty q j then if ty p i = seg_seq then -1 else 1
  else compare_asns p q i j 0

and compare_asns p q i j k =
  let np = count p i and nq = count q j in
  if k >= np then if k >= nq then compare_segments p q (next p i) (next q j) else -1
  else if k >= nq then 1
  else
    match Int.compare (raw p (i + 2 + (4 * k))) (raw q (j + 2 + (4 * k))) with
    | 0 -> compare_asns p q i j (k + 1)
    | c -> c

let compare p q = if p == q then 0 else compare_segments p q 0 0

let pp ppf p =
  let len = String.length p in
  let rec from i =
    if i < len then begin
      if i > 0 then Format.pp_print_char ppf ' ';
      let set = ty p i = seg_set in
      if set then Format.pp_print_char ppf '{';
      for k = 0 to count p i - 1 do
        if k > 0 then Format.pp_print_char ppf (if set then ',' else ' ');
        Format.pp_print_int ppf (raw p (i + 2 + (4 * k)))
      done;
      if set then Format.pp_print_char ppf '}';
      from (next p i)
    end
  in
  from 0

let to_wire p = p

(* Top-level rather than local, so that checking allocates nothing. *)
let rec check_wire buf i stop =
  if i >= stop then Ok ()
  else if i + 2 > stop then Error `Truncated
  else
    let next = i + 2 + (4 * Bytes.get_uint8 buf (i + 1)) in
    let t = Bytes.get_uint8 buf i in
    if next > stop then Error `Truncated
    else if t <> seg_set && t <> seg_seq then Error (`Segment_type t)
    else check_wire buf next stop

let of_wire buf ~pos ~len =
  match check_wire buf pos (pos + len) with
  | Ok () -> Ok (Bytes.sub_string buf pos len)
  | Error _ as e -> e
