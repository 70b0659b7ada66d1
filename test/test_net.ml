open Peering_net

let check = Alcotest.check
let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Ipv4 *)

let test_ipv4_roundtrip () =
  List.iter
    (fun s ->
      match Ipv4.of_string s with
      | Some a -> check Alcotest.string "roundtrip" s (Ipv4.to_string a)
      | None -> Alcotest.failf "failed to parse %s" s)
    [ "0.0.0.0"; "255.255.255.255"; "10.0.0.1"; "184.164.224.0"; "1.2.3.4" ]

let test_ipv4_invalid () =
  List.iter
    (fun s ->
      check Alcotest.bool (Printf.sprintf "reject %S" s) true
        (Ipv4.of_string s = None))
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "a.b.c.d"; "1..2.3"; "1.2.3.4 ";
      " 1.2.3.4"; "1.2.3.-4"; "01x.2.3.4" ]

let test_ipv4_octets () =
  let a = Ipv4.of_octets 192 168 1 42 in
  check Alcotest.string "octets" "192.168.1.42" (Ipv4.to_string a);
  check Alcotest.string "masked to 8 bits" "1.2.3.4"
    (Ipv4.to_string (Ipv4.of_octets 257 258 259 260))

let test_ipv4_bit () =
  let a = Ipv4.of_string_exn "128.0.0.1" in
  check Alcotest.bool "msb" true (Ipv4.bit a 0);
  check Alcotest.bool "bit1" false (Ipv4.bit a 1);
  check Alcotest.bool "lsb" true (Ipv4.bit a 31)

let test_ipv4_arith () =
  let a = Ipv4.of_string_exn "10.0.0.255" in
  check Alcotest.string "carry" "10.0.1.0" (Ipv4.to_string (Ipv4.add a 1));
  check Alcotest.string "add" "10.0.2.4"
    (Ipv4.to_string (Ipv4.add a 261));
  check Alcotest.string "wrap" "0.0.0.0"
    (Ipv4.to_string (Ipv4.add (Ipv4.of_string_exn "255.255.255.255") 1))

(* ------------------------------------------------------------------ *)
(* Prefix *)

let test_prefix_parse () =
  let p = Prefix.of_string_exn "184.164.224.0/19" in
  check Alcotest.int "len" 19 (Prefix.len p);
  check Alcotest.string "str" "184.164.224.0/19" (Prefix.to_string p);
  (* host bits cleared *)
  let q = Prefix.of_string_exn "10.1.2.3/8" in
  check Alcotest.string "normalised" "10.0.0.0/8" (Prefix.to_string q);
  (* bare address is /32 *)
  let r = Prefix.of_string_exn "1.2.3.4" in
  check Alcotest.int "host len" 32 (Prefix.len r)

let test_prefix_mem () =
  let p = Prefix.of_string_exn "184.164.224.0/19" in
  check Alcotest.bool "first" true
    (Prefix.mem (Ipv4.of_string_exn "184.164.224.0") p);
  check Alcotest.bool "last" true
    (Prefix.mem (Ipv4.of_string_exn "184.164.255.255") p);
  check Alcotest.bool "below" false
    (Prefix.mem (Ipv4.of_string_exn "184.164.223.255") p);
  check Alcotest.bool "above" false
    (Prefix.mem (Ipv4.of_string_exn "184.165.0.0") p)

let test_prefix_subsumes () =
  let p19 = Prefix.of_string_exn "184.164.224.0/19" in
  let p24 = Prefix.of_string_exn "184.164.230.0/24" in
  check Alcotest.bool "19 covers 24" true (Prefix.subsumes p19 p24);
  check Alcotest.bool "24 not cover 19" false (Prefix.subsumes p24 p19);
  check Alcotest.bool "self" true (Prefix.subsumes p19 p19);
  check Alcotest.bool "overlaps" true (Prefix.overlaps p24 p19)

let test_prefix_subprefixes () =
  let p = Prefix.of_string_exn "184.164.224.0/19" in
  let subs = Prefix.subprefixes p 24 in
  check Alcotest.int "count" 32 (List.length subs);
  check Alcotest.string "first" "184.164.224.0/24"
    (Prefix.to_string (List.hd subs));
  check Alcotest.string "last" "184.164.255.0/24"
    (Prefix.to_string (List.nth subs 31));
  check Alcotest.string "nth matches list" "184.164.229.0/24"
    (Prefix.to_string (Prefix.nth_subprefix p 24 5))

let test_prefix_size () =
  check Alcotest.int "/19" 8192 (Prefix.size (Prefix.of_string_exn "10.0.0.0/19"));
  check Alcotest.int "/32" 1 (Prefix.size (Prefix.of_string_exn "10.0.0.1/32"))

(* ------------------------------------------------------------------ *)
(* Prefix_trie *)

let trie_of l =
  List.fold_left
    (fun t s -> Prefix_trie.add (Prefix.of_string_exn s) s t)
    Prefix_trie.empty l

let lpm_of t a =
  Option.map snd (Prefix_trie.longest_match (Ipv4.of_string_exn a) t)

(* Exact lookup: [p] is among the prefixes holding its own address. *)
let find p t = List.assoc_opt p (Prefix_trie.matches (Prefix.addr p) t)

let test_trie_exact () =
  let t = trie_of [ "10.0.0.0/8"; "10.0.0.0/16"; "192.168.0.0/16" ] in
  check Alcotest.(option string) "find /8" (Some "10.0.0.0/8")
    (find (Prefix.of_string_exn "10.0.0.0/8") t);
  check Alcotest.(option string) "find /16" (Some "10.0.0.0/16")
    (find (Prefix.of_string_exn "10.0.0.0/16") t);
  check Alcotest.(option string) "missing" None
    (find (Prefix.of_string_exn "10.0.0.0/12") t);
  check Alcotest.int "cardinal" 3 (Prefix_trie.cardinal t)

let test_trie_lpm () =
  let t = trie_of [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24" ] in
  check Alcotest.(option string) "most specific" (Some "10.1.2.0/24")
    (lpm_of t "10.1.2.3");
  check Alcotest.(option string) "mid" (Some "10.1.0.0/16") (lpm_of t "10.1.3.1");
  check Alcotest.(option string) "least" (Some "10.0.0.0/8") (lpm_of t "10.2.0.1");
  check Alcotest.(option string) "none" None (lpm_of t "11.0.0.1");
  check Alcotest.(list string) "matches, most specific first"
    [ "10.1.2.0/24"; "10.1.0.0/16"; "10.0.0.0/8" ]
    (List.map snd (Prefix_trie.matches (Ipv4.of_string_exn "10.1.2.3") t))

let remove p t = Prefix_trie.update p (fun _ -> None) t

let test_trie_remove () =
  let t = trie_of [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24" ] in
  let t = remove (Prefix.of_string_exn "10.1.0.0/16") t in
  check Alcotest.int "cardinal" 2 (Prefix_trie.cardinal t);
  check Alcotest.(option string) "lpm falls back" (Some "10.0.0.0/8")
    (lpm_of t "10.1.3.1");
  (* removing a non-existent prefix is a no-op *)
  let t2 = remove (Prefix.of_string_exn "99.0.0.0/8") t in
  check Alcotest.int "noop remove" 2 (Prefix_trie.cardinal t2)

let test_trie_default_route () =
  let t = trie_of [ "0.0.0.0/0"; "10.0.0.0/8" ] in
  check Alcotest.(option string) "default" (Some "0.0.0.0/0") (lpm_of t "8.8.8.8");
  check Alcotest.(option string) "specific" (Some "10.0.0.0/8")
    (lpm_of t "10.9.9.9")

let test_trie_update () =
  let p = Prefix.of_string_exn "10.0.0.0/8" in
  let t = Prefix_trie.update p (fun _ -> Some 1) Prefix_trie.empty in
  let t = Prefix_trie.update p (Option.map succ) t in
  check Alcotest.(option int) "updated" (Some 2) (find p t);
  let t = Prefix_trie.update p (fun _ -> None) t in
  check Alcotest.int "deleted" 0 (Prefix_trie.cardinal t)

let arbitrary_prefix =
  QCheck.make
    ~print:(fun p -> Prefix.to_string p)
    QCheck.Gen.(
      let* len = int_range 4 32 in
      let* addr = int_range 0 0xFFFFFFF in
      return (Prefix.make (Ipv4.of_int (addr * 16)) len))

let trie_of_uniq prefixes =
  List.fold_left
    (fun (t, entries) p ->
      let v = List.length entries in
      (Prefix_trie.add p v t, (p, v) :: entries))
    (Prefix_trie.empty, [])
    (List.sort_uniq Prefix.compare prefixes)

(* QCheck: trie LPM agrees with a naive linear scan. *)
let naive_lpm addr entries =
  List.filter (fun (p, _) -> Prefix.mem addr p) entries
  |> List.sort (fun (p, _) (q, _) -> Int.compare (Prefix.len q) (Prefix.len p))
  |> function
  | [] -> None
  | (p, v) :: _ -> Some (Prefix.len p, (p, v))

let prop_lpm_matches_naive =
  QCheck.Test.make ~name:"trie LPM = naive scan" ~count:300
    QCheck.(pair (small_list arbitrary_prefix) (int_bound 0xFFFFFF))
    (fun (prefixes, addr_seed) ->
      let trie, entries = trie_of_uniq prefixes in
      let addr = Ipv4.of_int (addr_seed * 256) in
      match (Prefix_trie.longest_match addr trie, naive_lpm addr entries) with
      | None, None -> true
      | Some (p, _), Some (len, _) -> Prefix.len p = len
      | Some _, None | None, Some _ -> false)

(* QCheck: a seeded sequence of [add] and [update] (whose [None]
   deletes) against an association-list model. After every step the
   trie holds exactly the model's bindings, and [longest_match] and
   [matches] agree with a scan of the model at the first, last and
   middle address of every prefix touched so far and at the addresses
   just outside it. Prefixes are drawn from 10.0.0.0/14 so steps
   collide, nest and split each other's nodes. *)
type trie_op = Add of Prefix.t * int | Bump of Prefix.t * int | Delete of Prefix.t

let print_op = function
  | Add (p, v) -> Printf.sprintf "add %s %d" (Prefix.to_string p) v
  | Bump (p, v) -> Printf.sprintf "bump %s %d" (Prefix.to_string p) v
  | Delete p -> "delete " ^ Prefix.to_string p

let arbitrary_ops =
  let prefix =
    QCheck.Gen.(
      let* len = int_range 8 32 in
      let* addr = int_bound 0x3FFFF in
      return (Prefix.make (Ipv4.of_int (0x0A000000 lor (addr lsl 8))) len))
  in
  let op =
    QCheck.Gen.(
      let* p = prefix and* v = int_bound 99 in
      oneofl [ Add (p, v); Bump (p, v); Delete p ])
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck.Gen.(list_size (int_range 1 40) op)

let prop_trie_model =
  QCheck.Test.make ~name:"trie add/update = assoc-list model" ~count:300
    arbitrary_ops (fun ops ->
      let step (t, model, touched) op =
        let bump v = function Some x -> Some (x + v) | None -> Some v in
        match op with
        | Add (p, v) -> (Prefix_trie.add p v t, (p, v) :: List.remove_assoc p model, p :: touched)
        | Bump (p, v) ->
          let x = Option.get (bump v (List.assoc_opt p model)) in
          (Prefix_trie.update p (bump v) t, (p, x) :: List.remove_assoc p model, p :: touched)
        | Delete p -> (remove p t, List.remove_assoc p model, p :: touched)
      in
      let agrees (t, model, touched) =
        let by_len (p, _) (q, _) = Int.compare (Prefix.len q) (Prefix.len p) in
        let model_matches a =
          List.sort by_len (List.filter (fun (p, _) -> Prefix.mem a p) model)
        in
        let probes p =
          let first = Prefix.first p and last = Prefix.last p in
          [ first; last; Ipv4.add first (Prefix.size p / 2); Ipv4.add first (-1);
            Ipv4.add last 1 ]
        in
        Prefix_trie.cardinal t = List.length model
        && List.for_all (fun p -> find p t = List.assoc_opt p model) touched
        && List.for_all
             (fun a ->
               let expect = model_matches a in
               Prefix_trie.matches a t = expect
               && Prefix_trie.longest_match a t
                  = (match expect with [] -> None | b :: _ -> Some b))
             (List.concat_map probes touched)
      in
      let rec run state = function
        | [] -> true
        | op :: rest ->
          let state = step state op in
          agrees state && run state rest
      in
      run (Prefix_trie.empty, [], []) ops)

let prop_trie_remove_all =
  QCheck.Test.make ~name:"removing all keys empties trie" ~count:200
    QCheck.(small_list arbitrary_prefix)
    (fun prefixes ->
      let trie, entries = trie_of_uniq prefixes in
      let emptied = List.fold_left (fun t (p, _) -> remove p t) trie entries in
      Prefix_trie.cardinal emptied = 0)

(* ------------------------------------------------------------------ *)
(* Prefix_pool *)

let test_pool_alloc_free () =
  let supply = Prefix.of_string_exn "184.164.224.0/19" in
  let pool = Prefix_pool.create [ supply ] in
  check Alcotest.int "capacity" 32 (Prefix_pool.available pool);
  match Prefix_pool.alloc pool with
  | None -> Alcotest.fail "alloc failed"
  | Some (p, pool) ->
    check Alcotest.string "lowest block" "184.164.224.0/24" (Prefix.to_string p);
    check Alcotest.int "available" 31 (Prefix_pool.available pool);
    (match Prefix_pool.free p pool with
    | Ok pool -> (
      check Alcotest.int "freed" 32 (Prefix_pool.available pool);
      match Prefix_pool.free p pool with
      | Error `Not_allocated -> ()
      | Ok _ -> Alcotest.fail "double free should fail")
    | Error `Not_allocated -> Alcotest.fail "free failed")

let test_pool_exhaustion () =
  let supply = Prefix.of_string_exn "10.0.0.0/22" in
  let pool = Prefix_pool.create [ supply ] in
  let rec drain pool n =
    match Prefix_pool.alloc pool with
    | Some (_, pool) -> drain pool (n + 1)
    | None -> n
  in
  check Alcotest.int "all blocks" 4 (drain pool 0)

let test_pool_disjoint () =
  let supply = Prefix.of_string_exn "10.0.0.0/22" in
  let pool = Prefix_pool.create [ supply ] in
  let rec take pool acc =
    match Prefix_pool.alloc pool with
    | Some (p, pool) -> take pool (p :: acc)
    | None -> List.rev acc
  in
  let blocks = take pool [] in
  check Alcotest.int "count" 4 (List.length blocks);
  List.iteri
    (fun i p ->
      List.iteri
        (fun j q ->
          if i < j then
            check Alcotest.bool "disjoint" false (Prefix.overlaps p q))
        blocks)
    blocks

let test_pool_donation () =
  let pool =
    Prefix_pool.create [ Prefix.of_string_exn "184.164.224.0/19" ]
  in
  let pool = Prefix_pool.add_supply (Prefix.of_string_exn "198.51.100.0/24") pool in
  check Alcotest.int "extra capacity" 33 (Prefix_pool.available pool);
  check Alcotest.bool "owns donated" true
    (Prefix_pool.mem_supply (Prefix.of_string_exn "198.51.100.0/24") pool);
  check Alcotest.bool "not foreign" false
    (Prefix_pool.mem_supply (Prefix.of_string_exn "8.8.8.0/24") pool);
  (* overlapping donation rejected *)
  match
    Prefix_pool.add_supply (Prefix.of_string_exn "184.164.230.0/24") pool
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overlapping supply accepted"

(* ------------------------------------------------------------------ *)
(* Asn / Country *)

let test_asn_ranges () =
  check Alcotest.bool "private 16-bit" true (Asn.is_private (Asn.of_int 64512));
  check Alcotest.bool "private high" true (Asn.is_private (Asn.of_int 65534));
  check Alcotest.bool "public" false (Asn.is_private (Asn.of_int 47065));
  check Alcotest.bool "private 32-bit" true
    (Asn.is_private (Asn.of_int 4200000000))

let test_country () =
  let rejects s =
    match Country.of_string_exn s with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check Alcotest.bool "reject" true (rejects "NLD" && rejects "n1");
  check Alcotest.string "upcase" "NL" (Country.of_string_exn "nl" :> string);
  check Alcotest.int "pool distinct" (Array.length Country.pool)
    (Country.Set.cardinal (Country.Set.of_list (Array.to_list Country.pool)))

(* ------------------------------------------------------------------ *)
(* Ipv6 / Prefix6: the 128-bit values the MRT codec carries *)

(* [hi] holds bits 0-63: a /1 keeps only the top bit of [hi], a /65
   every bit of [hi] and only the top bit of [lo]. *)
let test_ipv6_bits_order () =
  let masked len = Prefix6.addr (Prefix6.make (Ipv6.make (-1L) (-1L)) len) in
  let halves len = ((masked len).Ipv6.hi, (masked len).Ipv6.lo) in
  let pair = Alcotest.(pair int64 int64) in
  check pair "/0" (0L, 0L) (halves 0);
  check pair "/1" (Int64.min_int, 0L) (halves 1);
  check pair "/64" (-1L, 0L) (halves 64);
  check pair "/65" (-1L, Int64.min_int) (halves 65);
  check pair "/128" (-1L, -1L) (halves 128)

let test_prefix6_ops () =
  let p = Prefix6.make (Ipv6.make 0x2804_269c_dead_beefL 1L) 32 in
  check Alcotest.int "len" 32 (Prefix6.len p);
  check Alcotest.(pair int64 int64) "host bits cleared"
    (0x2804_269c_0000_0000L, 0L)
    ((Prefix6.addr p).Ipv6.hi, (Prefix6.addr p).Ipv6.lo)

let test_prefix6_invalid () =
  List.iter
    (fun len ->
      match Prefix6.make (Ipv6.make 0L 0L) len with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "length %d accepted" len)
    [ -1; 129 ]

let () =
  Alcotest.run "net"
    [ ( "ipv4",
        [ tc "roundtrip" `Quick test_ipv4_roundtrip;
          tc "invalid" `Quick test_ipv4_invalid;
          tc "octets" `Quick test_ipv4_octets;
          tc "bits" `Quick test_ipv4_bit;
          tc "arithmetic" `Quick test_ipv4_arith
        ] );
      ( "prefix",
        [ tc "parse" `Quick test_prefix_parse;
          tc "mem" `Quick test_prefix_mem;
          tc "subsumes" `Quick test_prefix_subsumes;
          tc "subprefixes" `Quick test_prefix_subprefixes;
          tc "size" `Quick test_prefix_size
        ] );
      ( "trie",
        [ tc "exact" `Quick test_trie_exact;
          tc "lpm" `Quick test_trie_lpm;
          tc "remove" `Quick test_trie_remove;
          tc "default route" `Quick test_trie_default_route;
          tc "update" `Quick test_trie_update;
          QCheck_alcotest.to_alcotest prop_lpm_matches_naive;
          QCheck_alcotest.to_alcotest prop_trie_model;
          QCheck_alcotest.to_alcotest prop_trie_remove_all
        ] );
      ( "pool",
        [ tc "alloc/free" `Quick test_pool_alloc_free;
          tc "exhaustion" `Quick test_pool_exhaustion;
          tc "disjoint" `Quick test_pool_disjoint;
          tc "donation" `Quick test_pool_donation
        ] );
      ( "asn+country",
        [ tc "asn ranges" `Quick test_asn_ranges;
          tc "country" `Quick test_country
        ] );
      ( "ipv6",
        [ tc "invalid" `Quick test_prefix6_invalid;
          tc "bit order" `Quick test_ipv6_bits_order;
          tc "prefix ops" `Quick test_prefix6_ops
        ] )
    ]
