(* Path-compressed binary trie. Invariants: a [Node]'s children are
   strictly more specific than its [prefix]; the left child continues
   with bit 0 at position [len prefix], the right child with bit 1; an
   [Empty] child is allowed; a node with [value = None] has two
   non-empty children or is the root of a just-built intermediate that
   [collapse] will normalise. *)

type 'a t =
  | Empty
  | Node of { prefix : Prefix.t; value : 'a option; left : 'a t; right : 'a t }

let empty = Empty

(* Length of the common prefix of [a] and [b], capped at [limit]. *)
let common_len a b limit =
  let x = Ipv4.to_int a lxor Ipv4.to_int b in
  if x = 0 then limit
  else
    let rec go i =
      if i >= limit then limit
      else if (x lsr (31 - i)) land 1 = 1 then i
      else go (i + 1)
    in
    go 0

let node prefix value left right = Node { prefix; value; left; right }

(* Re-establish invariants after a deletion: drop valueless nodes with
   fewer than two children. *)
let collapse prefix value left right =
  match (value, left, right) with
  | None, Empty, Empty -> Empty
  | None, (Node _ as child), Empty | None, Empty, (Node _ as child) -> child
  | _ -> node prefix value left right

(* Which child of a node with prefix [np] does prefix/address bits of
   [q] continue into? [true] = right (bit 1). *)
let goes_right np q_addr = Ipv4.bit q_addr (Prefix.len np)

let rec add p v t =
  match t with
  | Empty -> node p (Some v) Empty Empty
  | Node n ->
    let np = n.prefix in
    let cl =
      common_len (Prefix.addr p) (Prefix.addr np)
        (min (Prefix.len p) (Prefix.len np))
    in
    if cl = Prefix.len np then
      if Prefix.len p = Prefix.len np then
        node np (Some v) n.left n.right
      else if goes_right np (Prefix.addr p) then
        node np n.value n.left (add p v n.right)
      else node np n.value (add p v n.left) n.right
    else if cl = Prefix.len p then
      (* [p] is a strict ancestor of [np]: [t] becomes a child. *)
      if goes_right p (Prefix.addr np) then node p (Some v) Empty t
      else node p (Some v) t Empty
    else
      (* Split below the common prefix [cp]. *)
      let cp = Prefix.make (Prefix.addr p) cl in
      let leaf = node p (Some v) Empty Empty in
      if goes_right cp (Prefix.addr p) then node cp None t leaf
      else node cp None leaf t

let rec remove p t =
  match t with
  | Empty -> Empty
  | Node n ->
    let np = n.prefix in
    if Prefix.equal p np then collapse np None n.left n.right
    else if Prefix.subsumes np p && Prefix.len np < Prefix.len p then
      if goes_right np (Prefix.addr p) then
        collapse np n.value n.left (remove p n.right)
      else collapse np n.value (remove p n.left) n.right
    else t

let rec find p t =
  match t with
  | Empty -> None
  | Node n ->
    let np = n.prefix in
    if Prefix.equal p np then n.value
    else if Prefix.subsumes np p && Prefix.len np < Prefix.len p then
      find p (if goes_right np (Prefix.addr p) then n.right else n.left)
    else None

let update p f t =
  match f (find p t) with
  | Some v -> add p v t
  | None -> remove p t

let matches a t =
  let rec go t acc =
    match t with
    | Empty -> acc
    | Node n ->
      if Prefix.mem a n.prefix then
        let acc =
          match n.value with
          | Some v -> (n.prefix, v) :: acc
          | None -> acc
        in
        if Prefix.len n.prefix = 32 then acc
        else go (if Ipv4.bit a (Prefix.len n.prefix) then n.right else n.left) acc
      else acc
  in
  go t []

let longest_match a t =
  match matches a t with [] -> None | best :: _ -> Some best

let rec fold f t acc =
  match t with
  | Empty -> acc
  | Node n ->
    let acc =
      match n.value with Some v -> f n.prefix v acc | None -> acc
    in
    let acc = fold f n.left acc in
    fold f n.right acc

let cardinal t = fold (fun _ _ n -> n + 1) t 0
