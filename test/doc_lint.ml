(* Documentation linter for interface files and prose docs.

   The build environment has no odoc, so `dune build @doc` alone cannot
   gate documentation quality; this tool is attached to the @doc alias
   (and to runtest) instead.

   [doc_lint FILE.mli...] requires every top-level [val] and [type] in
   the given .mli files to carry an adjacent odoc comment — either a
   [(** … *)] in the lines of the declaration itself / right after it,
   or one ending on the line directly above — and rejects files whose
   comment delimiters do not balance (a malformed or unterminated doc
   comment).

   [doc_lint --paths ROOT FILE.md...] requires every backquoted repo
   path in the given Markdown files to exist under ROOT. A repo path is
   the first word of a code span outside fenced blocks, made only of
   path characters, whose first component is a top-level source
   directory ([lib/…], [test/…], …). An [x.exe] path resolves to
   [x.ml]; an extensionless one to a directory or [x.ml]. *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ends_with suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then false
    else if String.sub s i m = sub then true
    else go (i + 1)
  in
  go 0

let count_occurrences s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else if String.sub s i m = sub then go (i + m) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* Top-level items that must be documented. Module blocks are skipped:
   their members are indented and carry their own docs. *)
let is_item line =
  starts_with "val " line || starts_with "type " line
  || starts_with "exception " line

let is_blank line = String.trim line = ""

let read_lines file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      Array.of_list (List.rev acc)
  in
  go []

let lint file =
  let lines = read_lines file in
  let n = Array.length lines in
  let text = String.concat "\n" (Array.to_list lines) in
  let failures = ref [] in
  if count_occurrences text "(*" <> count_occurrences text "*)" then
    failures := (1, "unbalanced comment delimiters") :: !failures;
  for i = 0 to n - 1 do
    if is_item lines.(i) then begin
      (* The declaration block: this line plus following lines up to a
         blank line or the next item. A doc comment inside it (typical
         repo style puts the comment right after the signature) counts. *)
      let rec block_documented j =
        if j >= n || is_blank lines.(j) then false
        else if j > i && is_item lines.(j) then false
        else if contains lines.(j) "(**" then true
        else block_documented (j + 1)
      in
      (* Or a doc comment ending on the nearest non-blank line above. *)
      let rec doc_above j =
        if j < 0 then false
        else if is_blank lines.(j) then doc_above (j - 1)
        else ends_with "*)" (String.trim lines.(j))
      in
      if not (block_documented i || doc_above (i - 1)) then
        failures :=
          ( i + 1,
            Printf.sprintf "undocumented: %s"
              (String.trim lines.(i)) )
          :: !failures
    end
  done;
  List.rev !failures

let source_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test"; "docs" ]

let is_path_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '/' | '-' -> true
  | _ -> false

(* The repo path a code span names, if any. *)
let repo_path span =
  let word =
    match String.index_opt span ' ' with
    | Some i -> String.sub span 0 i
    | None -> span
  in
  match String.index_opt word '/' with
  | Some i
    when List.mem (String.sub word 0 i) source_dirs
         && String.for_all is_path_char word ->
    Some word
  | _ -> None

let resolves root path =
  let at p = Sys.file_exists (Filename.concat root p) in
  if Filename.check_suffix path ".exe" then
    at (Filename.chop_suffix path ".exe" ^ ".ml")
  else if Filename.extension path = "" then at path || at (path ^ ".ml")
  else at path

(* The code spans of one line: the text between pairs of backquotes. *)
let code_spans line =
  let rec go i acc =
    match String.index_from_opt line i '`' with
    | None -> List.rev acc
    | Some a -> (
      match String.index_from_opt line (a + 1) '`' with
      | None -> List.rev acc
      | Some b -> go (b + 1) (String.sub line (a + 1) (b - a - 1) :: acc))
  in
  go 0 []

let lint_paths root file =
  let failures = ref [] in
  let fenced = ref false in
  Array.iteri
    (fun i line ->
      if starts_with "```" (String.trim line) then fenced := not !fenced
      else if not !fenced then
        List.iter
          (fun span ->
            match repo_path span with
            | Some p when not (resolves root p) ->
              failures := (i + 1, Printf.sprintf "no such path: %s" p) :: !failures
            | _ -> ())
          (code_spans line))
    (read_lines file);
  List.rev !failures

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let check, files =
    match args with
    | "--paths" :: root :: files -> (lint_paths root, files)
    | files -> (lint, files)
  in
  if files = [] then begin
    prerr_endline "doc_lint: no files given";
    exit 2
  end;
  let bad = ref 0 in
  List.iter
    (fun file ->
      List.iter
        (fun (line, msg) ->
          incr bad;
          Printf.eprintf "%s:%d: %s\n" file line msg)
        (check file))
    files;
  if !bad > 0 then begin
    Printf.eprintf "doc_lint: %d failure%s in %d file%s\n" !bad
      (if !bad = 1 then "" else "s")
      (List.length files)
      (if List.length files = 1 then "" else "s");
    exit 1
  end
  else
    Printf.printf "doc_lint: %d file%s clean\n" (List.length files)
      (if List.length files = 1 then "" else "s")
