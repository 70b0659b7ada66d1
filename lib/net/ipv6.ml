type t = { hi : int64; lo : int64 }

let make hi lo = { hi; lo }

let groups a =
  let open Int64 in
  [ to_int (logand (shift_right_logical a.hi 48) 0xFFFFL);
    to_int (logand (shift_right_logical a.hi 32) 0xFFFFL);
    to_int (logand (shift_right_logical a.hi 16) 0xFFFFL);
    to_int (logand a.hi 0xFFFFL);
    to_int (logand (shift_right_logical a.lo 48) 0xFFFFL);
    to_int (logand (shift_right_logical a.lo 32) 0xFFFFL);
    to_int (logand (shift_right_logical a.lo 16) 0xFFFFL);
    to_int (logand a.lo 0xFFFFL)
  ]

let of_groups gs =
  match gs with
  | [ a; b; c; d; e; f; g; h ] ->
    let pack w x y z =
      let open Int64 in
      logor
        (logor (shift_left (of_int w) 48) (shift_left (of_int x) 32))
        (logor (shift_left (of_int y) 16) (of_int z))
    in
    { hi = pack a b c d; lo = pack e f g h }
  | _ -> invalid_arg "Ipv6.of_groups"

let parse_group s =
  if s = "" || String.length s > 4 then None
  else
    let ok =
      String.for_all
        (fun c ->
          (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
          || (c >= 'A' && c <= 'F'))
        s
    in
    if ok then Some (int_of_string ("0x" ^ s)) else None

let of_string s =
  (* Split on "::" first; each side is a ':'-separated group list. *)
  let split_groups part =
    if part = "" then Some []
    else
      let pieces = String.split_on_char ':' part in
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | p :: rest -> (
          match parse_group p with
          | Some g -> go (g :: acc) rest
          | None -> None)
      in
      go [] pieces
  in
  let double_colon =
    let rec find i =
      if i + 1 >= String.length s then None
      else if s.[i] = ':' && s.[i + 1] = ':' then Some i
      else find (i + 1)
    in
    find 0
  in
  match double_colon with
  | None -> (
    match split_groups s with
    | Some gs when List.length gs = 8 -> Some (of_groups gs)
    | _ -> None)
  | Some i -> (
    let left = String.sub s 0 i in
    let right = String.sub s (i + 2) (String.length s - i - 2) in
    (* a second "::" is illegal *)
    let has_dc t =
      let rec find j =
        j + 1 < String.length t
        && ((t.[j] = ':' && t.[j + 1] = ':') || find (j + 1))
      in
      find 0
    in
    if has_dc right then None
    else
      match (split_groups left, split_groups right) with
      | Some l, Some r when List.length l + List.length r <= 7 ->
        let fill = 8 - List.length l - List.length r in
        Some (of_groups (l @ List.init fill (fun _ -> 0) @ r))
      | _ -> None)

let of_string_exn s =
  match of_string s with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Ipv6.of_string_exn: %S" s)

let to_string a =
  let gs = Array.of_list (groups a) in
  (* Find the longest run of zero groups (length >= 2, leftmost). *)
  let best_start = ref (-1) and best_len = ref 0 in
  let i = ref 0 in
  while !i < 8 do
    if gs.(!i) = 0 then begin
      let j = ref !i in
      while !j < 8 && gs.(!j) = 0 do
        incr j
      done;
      let len = !j - !i in
      if len >= 2 && len > !best_len then begin
        best_start := !i;
        best_len := len
      end;
      i := !j
    end
    else incr i
  done;
  let buf = Buffer.create 40 in
  if !best_start = -1 then
    Buffer.add_string buf
      (String.concat ":"
         (List.map (Printf.sprintf "%x") (Array.to_list gs)))
  else begin
    for k = 0 to !best_start - 1 do
      if k > 0 then Buffer.add_char buf ':';
      Buffer.add_string buf (Printf.sprintf "%x" gs.(k))
    done;
    Buffer.add_string buf "::";
    for k = !best_start + !best_len to 7 do
      if k > !best_start + !best_len then Buffer.add_char buf ':';
      Buffer.add_string buf (Printf.sprintf "%x" gs.(k))
    done
  end;
  Buffer.contents buf

let compare a b =
  match Int64.unsigned_compare a.hi b.hi with
  | 0 -> Int64.unsigned_compare a.lo b.lo
  | c -> c

let equal a b = compare a b = 0

let bit a i =
  if i < 0 || i > 127 then invalid_arg "Ipv6.bit";
  if i < 64 then
    Int64.logand (Int64.shift_right_logical a.hi (63 - i)) 1L = 1L
  else Int64.logand (Int64.shift_right_logical a.lo (127 - i)) 1L = 1L

let add a n =
  let lo = Int64.add a.lo n in
  (* unsigned carry detection *)
  let carry = Int64.unsigned_compare lo a.lo < 0 in
  { hi = (if carry then Int64.add a.hi 1L else a.hi); lo }
