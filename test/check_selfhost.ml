(* Self-hosting gate for the analyzer: runs every pass over the repo's
   own config fixtures, example experiment specs and verification
   worlds. Any diagnostic at all fails the build — a finding here is a
   regression either in the fixture or in the analyzer itself (false
   positive).

   Specs are checked both individually and as a batch (cross-spec
   conflicts); every .world gets all given specs attached, so
   check_world also exercises the per-world spec passes. *)

open Peering_check

let read file =
  let ic = open_in file in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  text

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    prerr_endline "check_selfhost: no files given";
    exit 2
  end;
  let configs = ref [] and specs = ref [] and worlds = ref [] in
  let parse_fail file e =
    Printf.eprintf "check_selfhost: %s: parse error: %s\n" file
      (Peering_net.Lines.error_to_string e);
    exit 2
  in
  List.iter
    (fun file ->
      let text = read file in
      if Filename.check_suffix file ".exp" then
        match Spec.parse text with
        | Ok s -> specs := (Some file, s) :: !specs
        | Error e -> parse_fail file e
      else if Filename.check_suffix file ".world" then
        match World.parse text with
        | Ok w -> worlds := (file, w) :: !worlds
        | Error e -> parse_fail file e
      else
        match Peering_router.Config.parse text with
        | Ok c -> configs := (Some file, c) :: !configs
        | Error e -> parse_fail file e)
    files;
  let specs = List.rev !specs in
  let world_diags =
    List.concat_map
      (fun (file, w) ->
        List.iter (fun (f, s) -> World.add_spec ?file:f w s) specs;
        List.map (Diagnostic.with_file file) (Check.check_world w))
      (List.rev !worlds)
  in
  let diags =
    Check.check_configs (List.rev !configs)
    @ Check.check_specs specs
    @ world_diags
  in
  List.iter (fun d -> print_endline (Diagnostic.to_string d)) diags;
  if diags <> [] then begin
    Printf.eprintf
      "check_selfhost: %d diagnostic(s) on supposedly-clean fixtures\n"
      (List.length diags);
    exit 1
  end;
  Printf.printf "check_selfhost: %d file(s) clean\n" (List.length files)
