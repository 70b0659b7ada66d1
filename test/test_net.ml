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
  let w, x, y, z = Ipv4.to_octets a in
  check Alcotest.(list int) "to_octets" [ 192; 168; 1; 42 ] [ w; x; y; z ]

let test_ipv4_bit () =
  let a = Ipv4.of_string_exn "128.0.0.1" in
  check Alcotest.bool "msb" true (Ipv4.bit a 0);
  check Alcotest.bool "bit1" false (Ipv4.bit a 1);
  check Alcotest.bool "lsb" true (Ipv4.bit a 31)

let test_ipv4_arith () =
  let a = Ipv4.of_string_exn "10.0.0.255" in
  check Alcotest.string "succ" "10.0.1.0" (Ipv4.to_string (Ipv4.succ a));
  check Alcotest.string "add" "10.0.2.4"
    (Ipv4.to_string (Ipv4.add a 261));
  check Alcotest.string "wrap" "0.0.0.0"
    (Ipv4.to_string (Ipv4.succ (Ipv4.of_string_exn "255.255.255.255")))

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

let test_prefix_split () =
  let p = Prefix.of_string_exn "10.0.0.0/8" in
  match Prefix.split p with
  | Some (lo, hi) ->
    check Alcotest.string "lo" "10.0.0.0/9" (Prefix.to_string lo);
    check Alcotest.string "hi" "10.128.0.0/9" (Prefix.to_string hi)
  | None -> Alcotest.fail "split failed"

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
  Prefix_trie.of_list
    (List.map (fun s -> (Prefix.of_string_exn s, s)) l)

let test_trie_exact () =
  let t = trie_of [ "10.0.0.0/8"; "10.0.0.0/16"; "192.168.0.0/16" ] in
  check Alcotest.(option string) "find /8" (Some "10.0.0.0/8")
    (Prefix_trie.find (Prefix.of_string_exn "10.0.0.0/8") t);
  check Alcotest.(option string) "find /16" (Some "10.0.0.0/16")
    (Prefix_trie.find (Prefix.of_string_exn "10.0.0.0/16") t);
  check Alcotest.(option string) "missing" None
    (Prefix_trie.find (Prefix.of_string_exn "10.0.0.0/12") t);
  check Alcotest.int "cardinal" 3 (Prefix_trie.cardinal t)

let test_trie_lpm () =
  let t = trie_of [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24" ] in
  let lpm a =
    Option.map snd (Prefix_trie.longest_match (Ipv4.of_string_exn a) t)
  in
  check Alcotest.(option string) "most specific" (Some "10.1.2.0/24")
    (lpm "10.1.2.3");
  check Alcotest.(option string) "mid" (Some "10.1.0.0/16") (lpm "10.1.3.1");
  check Alcotest.(option string) "least" (Some "10.0.0.0/8") (lpm "10.2.0.1");
  check Alcotest.(option string) "none" None (lpm "11.0.0.1")

let test_trie_remove () =
  let t = trie_of [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24" ] in
  let t = Prefix_trie.remove (Prefix.of_string_exn "10.1.0.0/16") t in
  check Alcotest.int "cardinal" 2 (Prefix_trie.cardinal t);
  check
    Alcotest.(option string)
    "lpm falls back" (Some "10.0.0.0/8")
    (Option.map snd
       (Prefix_trie.longest_match (Ipv4.of_string_exn "10.1.3.1") t));
  (* removing a non-existent prefix is a no-op *)
  let t2 = Prefix_trie.remove (Prefix.of_string_exn "99.0.0.0/8") t in
  check Alcotest.int "noop remove" 2 (Prefix_trie.cardinal t2)

let test_trie_default_route () =
  let t = trie_of [ "0.0.0.0/0"; "10.0.0.0/8" ] in
  let lpm a =
    Option.map snd (Prefix_trie.longest_match (Ipv4.of_string_exn a) t)
  in
  check Alcotest.(option string) "default" (Some "0.0.0.0/0") (lpm "8.8.8.8");
  check Alcotest.(option string) "specific" (Some "10.0.0.0/8") (lpm "10.9.9.9")

let test_trie_covered () =
  let t = trie_of [ "10.0.0.0/8"; "10.1.0.0/16"; "10.1.2.0/24"; "11.0.0.0/8" ] in
  let covered =
    Prefix_trie.covered (Prefix.of_string_exn "10.1.0.0/16") t |> List.map snd
  in
  check Alcotest.(list string) "covered" [ "10.1.0.0/16"; "10.1.2.0/24" ] covered

let test_trie_update () =
  let t = Prefix_trie.empty in
  let p = Prefix.of_string_exn "10.0.0.0/8" in
  let t = Prefix_trie.update p (fun _ -> Some 1) t in
  let t = Prefix_trie.update p (Option.map succ) t in
  check Alcotest.(option int) "updated" (Some 2) (Prefix_trie.find p t);
  let t = Prefix_trie.update p (fun _ -> None) t in
  check Alcotest.bool "deleted" true (Prefix_trie.is_empty t)

(* QCheck: trie LPM agrees with a naive linear scan. *)
let arbitrary_prefix =
  QCheck.make
    ~print:(fun p -> Prefix.to_string p)
    QCheck.Gen.(
      let* len = int_range 4 32 in
      let* addr = int_range 0 0xFFFFFFF in
      return (Prefix.make (Ipv4.of_int (addr * 16)) len))

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
      let entries =
        List.mapi (fun i p -> (p, i)) (List.sort_uniq Prefix.compare prefixes)
      in
      let trie = Prefix_trie.of_list entries in
      let addr = Ipv4.of_int (addr_seed * 256) in
      match (Prefix_trie.longest_match addr trie, naive_lpm addr entries) with
      | None, None -> true
      | Some (p, _), Some (len, _) -> Prefix.len p = len
      | Some _, None | None, Some _ -> false)

let prop_trie_roundtrip =
  QCheck.Test.make ~name:"trie to_list/of_list roundtrip" ~count:200
    QCheck.(small_list arbitrary_prefix)
    (fun prefixes ->
      let entries =
        List.map (fun p -> (p, Prefix.to_string p))
          (List.sort_uniq Prefix.compare prefixes)
      in
      let trie = Prefix_trie.of_list entries in
      Prefix_trie.to_list trie = entries)

let prop_trie_remove_all =
  QCheck.Test.make ~name:"removing all keys empties trie" ~count:200
    QCheck.(small_list arbitrary_prefix)
    (fun prefixes ->
      let uniq = List.sort_uniq Prefix.compare prefixes in
      let trie = Prefix_trie.of_list (List.map (fun p -> (p, ())) uniq) in
      let emptied =
        List.fold_left (fun t p -> Prefix_trie.remove p t) trie uniq
      in
      Prefix_trie.is_empty emptied)

(* ------------------------------------------------------------------ *)
(* Prefix_pool *)

let test_pool_alloc_free () =
  let supply = Prefix.of_string_exn "184.164.224.0/19" in
  let pool = Prefix_pool.create ~alloc_len:24 [ supply ] in
  check Alcotest.int "capacity" 32 (Prefix_pool.capacity pool);
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
  let supply = Prefix.of_string_exn "10.0.0.0/30" in
  let pool = Prefix_pool.create ~alloc_len:32 [ supply ] in
  let rec drain pool n =
    match Prefix_pool.alloc pool with
    | Some (_, pool) -> drain pool (n + 1)
    | None -> n
  in
  check Alcotest.int "all blocks" 4 (drain pool 0)

let test_pool_disjoint () =
  let supply = Prefix.of_string_exn "10.0.0.0/24" in
  let pool = Prefix_pool.create ~alloc_len:26 [ supply ] in
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
    Prefix_pool.create ~alloc_len:24 [ Prefix.of_string_exn "184.164.224.0/19" ]
  in
  let pool = Prefix_pool.add_supply (Prefix.of_string_exn "198.51.100.0/24") pool in
  check Alcotest.int "extra capacity" 33 (Prefix_pool.capacity pool);
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
    (Asn.is_private (Asn.of_int 4200000000));
  check Alcotest.bool "reserved zero" true (Asn.is_reserved (Asn.of_int 0));
  check Alcotest.bool "as-trans" true (Asn.is_reserved (Asn.of_int 23456))

let test_country () =
  check Alcotest.bool "parse" true (Country.of_string "nl" <> None);
  check Alcotest.bool "reject" true (Country.of_string "NLD" = None);
  check Alcotest.string "upcase" "NL"
    (Country.to_string (Country.of_string_exn "nl"));
  let distinct =
    Array.to_list Country.pool |> List.sort_uniq Country.compare
  in
  check Alcotest.int "pool distinct" (Array.length Country.pool)
    (List.length distinct)

(* ------------------------------------------------------------------ *)
(* Ipv6 / Prefix6 *)

let test_ipv6_parse_print () =
  List.iter
    (fun (input, canonical) ->
      match Ipv6.of_string input with
      | Some a -> check Alcotest.string input canonical (Ipv6.to_string a)
      | None -> Alcotest.failf "failed to parse %s" input)
    [ ("2804:269c::", "2804:269c::");
      ("2804:269C:0:0:0:0:0:1", "2804:269c::1");
      ("::", "::");
      ("::1", "::1");
      ("1::", "1::");
      ("2001:db8:0:0:1:0:0:1", "2001:db8::1:0:0:1") (* leftmost-longest run *);
      ("fe80:0:0:0:0:0:0:1", "fe80::1");
      ("1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8");
      ("0:0:1:0:0:0:1:0", "0:0:1::1:0") ]

let test_ipv6_invalid () =
  List.iter
    (fun s ->
      check Alcotest.bool (Printf.sprintf "reject %S" s) true
        (Ipv6.of_string s = None))
    [ ""; ":::"; "1:2:3"; "1:2:3:4:5:6:7:8:9"; "2001:db8::1::2"; "g::1";
      "12345::" ]

let test_ipv6_bits_order () =
  let a = Ipv6.of_string_exn "8000::1" in
  check Alcotest.bool "msb" true (Ipv6.bit a 0);
  check Alcotest.bool "bit 1" false (Ipv6.bit a 1);
  check Alcotest.bool "lsb" true (Ipv6.bit a 127);
  let b = Ipv6.of_string_exn "::1:0:0:0:0" in
  (* group 3 (bits 48-63) = 1 -> bit 63 set *)
  check Alcotest.bool "bit 63" true (Ipv6.bit b 63)

let test_ipv6_add_carry () =
  let a = Ipv6.of_string_exn "::ffff:ffff:ffff:ffff" in
  let b = Ipv6.add a 1L in
  check Alcotest.string "carry into hi" "0:0:0:1::" (Ipv6.to_string b)

let prop_ipv6_roundtrip =
  QCheck.Test.make ~name:"ipv6 to_string/of_string roundtrip" ~count:300
    QCheck.(pair int64 int64)
    (fun (hi, lo) ->
      let a = Ipv6.make hi lo in
      match Ipv6.of_string (Ipv6.to_string a) with
      | Some b -> Ipv6.equal a b
      | None -> false)

let test_prefix6_ops () =
  let p = Prefix6.of_string_exn "2804:269c::/32" in
  check Alcotest.string "render" "2804:269c::/32" (Prefix6.to_string p);
  check Alcotest.bool "mem inside" true
    (Prefix6.mem (Ipv6.of_string_exn "2804:269c:42::1") p);
  check Alcotest.bool "mem outside" false
    (Prefix6.mem (Ipv6.of_string_exn "2804:269d::1") p);
  let q = Prefix6.of_string_exn "2804:269c:1::/48" in
  check Alcotest.bool "subsumes" true (Prefix6.subsumes p q);
  check Alcotest.bool "not reversed" false (Prefix6.subsumes q p);
  (* normalisation clears host bits *)
  let r = Prefix6.of_string_exn "2804:269c::dead:beef/32" in
  check Alcotest.bool "normalised" true (Prefix6.equal p r);
  (* nth subprefix *)
  check Alcotest.string "nth /48" "2804:269c:5::/48"
    (Prefix6.to_string (Prefix6.nth_subprefix p 48 5))

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
          tc "split" `Quick test_prefix_split;
          tc "subprefixes" `Quick test_prefix_subprefixes;
          tc "size" `Quick test_prefix_size
        ] );
      ( "trie",
        [ tc "exact" `Quick test_trie_exact;
          tc "lpm" `Quick test_trie_lpm;
          tc "remove" `Quick test_trie_remove;
          tc "default route" `Quick test_trie_default_route;
          tc "covered" `Quick test_trie_covered;
          tc "update" `Quick test_trie_update;
          QCheck_alcotest.to_alcotest prop_lpm_matches_naive;
          QCheck_alcotest.to_alcotest prop_trie_roundtrip;
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
        [ tc "parse/print" `Quick test_ipv6_parse_print;
          tc "invalid" `Quick test_ipv6_invalid;
          tc "bit order" `Quick test_ipv6_bits_order;
          tc "add carry" `Quick test_ipv6_add_carry;
          QCheck_alcotest.to_alcotest prop_ipv6_roundtrip;
          tc "prefix ops" `Quick test_prefix6_ops
        ] )
    ]
