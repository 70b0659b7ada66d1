(* @robust: the three text parsers (Config, Spec, World) never raise.
   Every file named on the command line is parsed whole, truncated at
   every byte offset, and with each token of each line replaced in
   turn by each value of a fixed hostile list; every parse must return
   Ok or Error. The one-line out-of-range ASN inputs are pinned as
   named cases with their diagnostics.

   Run alone with `dune build @robust`. *)

open Peering_net
module Config = Peering_router.Config
module Spec = Peering_check.Spec
module World = Peering_check.World

let hostile =
  [ "-1"; "4294967296"; "99999999999999999999"; "nan"; "inf"; "1e308"; "/";
    ":" ]

(* The parser a file goes through, chosen by its extension as
   [peering_cli check] and [verify] choose it. *)
let parser_for file text =
  let drop r = Result.map ignore r in
  if Filename.check_suffix file ".exp" then drop (Spec.parse text)
  else if Filename.check_suffix file ".world" then drop (World.parse text)
  else drop (Config.parse text)

let truncations text =
  List.init (String.length text) (fun i -> String.sub text 0 i)

let corruptions text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let replace a i v =
    let a = Array.copy a in
    a.(i) <- v;
    a
  in
  List.concat
    (List.init (Array.length lines) (fun i ->
         let toks = Array.of_list (String.split_on_char ' ' lines.(i)) in
         List.concat
           (List.init (Array.length toks) (fun j ->
                if toks.(j) = "" then []
                else
                  List.map
                    (fun h ->
                      let line =
                        String.concat " " (Array.to_list (replace toks j h))
                      in
                      String.concat "\n"
                        (Array.to_list (replace lines i line)))
                    hostile))))

let read file =
  let ic = open_in_bin file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let test_corpus file () =
  let text = read file in
  let inputs = (text :: truncations text) @ corruptions text in
  let raised =
    List.filter_map
      (fun input ->
        match parser_for file input with
        | Ok () | Error _ -> None
        | exception e -> Some (input, Printexc.to_string e))
      inputs
  in
  match raised with
  | [] -> ()
  | (input, exn) :: _ ->
    Alcotest.failf "%d of %d inputs raised; first: %s on %S"
      (List.length raised) (List.length inputs) exn input

let parse_error parse text =
  match parse text with
  | Ok _ -> "parsed"
  | Error e -> Lines.error_to_string e
  | exception e -> "raised " ^ Printexc.to_string e

let asn_range_cases =
  let case name parse text expected =
    Alcotest.test_case name `Quick (fun () ->
        Alcotest.(check string) text expected (parse_error parse text))
  in
  [ case "config router bgp" Config.parse "router bgp 8589934592"
      "line 1: bad asn \"8589934592\"";
    case "config remote-as" Config.parse
      "router bgp 1\n neighbor 10.0.0.1 remote-as -1"
      "line 2: bad asn \"-1\"";
    case "config as-path-contains" Config.parse
      "route-map X permit 10\n match as-path-contains 4294967296"
      "line 2: bad asn \"4294967296\"";
    case "world as" World.parse "as 4294967296"
      "line 1: bad asn \"4294967296\"";
    case "world edge" World.parse "as 1\nedge 1 peer 4294967296"
      "line 2: bad asn \"4294967296\"";
    case "spec asn" Spec.parse "asn 8589934592"
      "line 1: bad asn \"8589934592\"";
    case "spec path" Spec.parse "announce 10.0.0.0/8 at 0 path 4294967296"
      "line 1: bad asn \"4294967296\""
  ]

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    prerr_endline "test_robust: no files given";
    exit 2
  end;
  Alcotest.run ~argv:[| Sys.argv.(0) |] "robust"
    [ ( "corpus",
        List.map
          (fun f -> Alcotest.test_case (Filename.basename f) `Quick (test_corpus f))
          files );
      ("asn-range", asn_range_cases)
    ]
