(* Export linter: every top-level [val] of a library interface must have
   a caller outside its own module.

   Usage: export_lint ALLOWLIST FILE... -- TEST_FILE...

   The FILEs are every [lib/**/*.mli] and every [.ml] of lib, bin,
   bench, perfbench and examples; the TEST_FILEs are the [.ml] files
   of the test suite. Each top-level [val] (one starting at column 0)
   of a lib interface needs a reference from some FILE other than its
   own implementation, or an ALLOWLIST line [Module.value  reason]
   saying which test needs it. An entry that no TEST_FILE refers to is
   stale and fails too: it would hide a value nothing calls.

   References are found on a token stream (comments, strings and
   character literals removed), and are resolved generously:
   - a qualified path [A.M.v] refers to [v] of every lib module named
     [M] (the two [Capability] modules are conflated);
   - [module X = A.M] makes [X.v] refer to [M]'s [v];
   - inside a local open [M.( … )], [M.[ … ]] or [M.{ … }], a bare [v]
     refers to [M]'s [v];
   - after [open M], [let open M in] or [include M], a bare [v] refers
     to [M]'s [v] for the rest of the file.
   Each rule can only add references, so resolving too much may hide an
   unused value but never reports a used one. *)

let read_file file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ends_with suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

(* ------------------------------------------------------------------ *)
(* Lexer: identifiers and brackets; everything else is dropped. *)

type tok =
  | Uid of string
  | Lid of string
  | Dot
  | Open of char  (** '(' '[' or '{' *)
  | Close
  | Eq  (** a lone '=' *)
  | Sym  (** any other operator, punctuation, number or literal *)

let is_op_char c = String.contains "!$%&*+-/:<=>?@^|~#" c

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let tokens s =
  let n = String.length s in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  (* Index just past the string literal opened at [i]. *)
  let rec skip_string i =
    if i >= n then n
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' -> skip_string (i + 2)
      | _ -> skip_string (i + 1)
  in
  (* [{id|…|id}]: index just past it, or [None] if [i] opens none. *)
  let quoted_string i =
    let j = ref (i + 1) in
    while !j < n && (match s.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if !j < n && s.[!j] = '|' then begin
      let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let rec find k =
        if k + m > n then n
        else if String.sub s k m = close then k + m
        else find (k + 1)
      in
      Some (find (!j + 1))
    end
    else None
  in
  (* Index just past the comment opened at [i] (nesting, and strings
     inside comments, as the OCaml lexer reads them). *)
  let rec skip_comment i depth =
    if i >= n then n
    else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then
      skip_comment (i + 2) (depth + 1)
    else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (i + 2) (depth - 1)
    else if s.[i] = '"' then skip_comment (skip_string (i + 1)) depth
    else if s.[i] = '{' then
      match quoted_string i with
      | Some j -> skip_comment j depth
      | None -> skip_comment (i + 1) depth
    else skip_comment (i + 1) depth
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '(' when i + 1 < n && s.[i + 1] = '*' -> go (skip_comment (i + 2) 1)
      | '"' ->
        push Sym;
        go (skip_string (i + 1))
      | '{' -> (
        match quoted_string i with
        | Some j ->
          push Sym;
          go j
        | None ->
          push (Open '{');
          go (i + 1))
      | '\'' when i + 1 < n && s.[i + 1] = '\\' ->
        (* An escaped character literal: up to its closing quote. *)
        let j = ref (i + 2) in
        while !j < n && s.[!j] <> '\'' do
          incr j
        done;
        push Sym;
        go (!j + 1)
      | '\'' when i + 2 < n && s.[i + 2] = '\'' ->
        push Sym;
        go (i + 3)
      | ('(' | '[') as c ->
        push (Open c);
        go (i + 1)
      | ')' | ']' | '}' ->
        push Close;
        go (i + 1)
      | '.' ->
        push Dot;
        go (i + 1)
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' ->
        let j = ref (i + 1) in
        while !j < n && is_ident_char s.[!j] do
          incr j
        done;
        let id = String.sub s i (!j - i) in
        (match id.[0] with
        | 'A' .. 'Z' -> push (Uid id)
        | 'a' .. 'z' | '_' -> push (Lid id)
        | _ -> push Sym);
        go !j
      | c when is_op_char c ->
        let j = ref (i + 1) in
        while !j < n && is_op_char s.[!j] do
          incr j
        done;
        push (if !j = i + 1 && c = '=' then Eq else Sym);
        go !j
      | _ ->
        push Sym;
        go (i + 1)
  in
  go 0;
  Array.of_list (List.rev !toks)

(* ------------------------------------------------------------------ *)
(* Interfaces *)

type export = {
  file : string;  (** the .mli *)
  line : int;
  modname : string;
  value : string;
}

let qualified e = e.modname ^ "." ^ e.value

let module_name file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* The top-level [val]s of an interface, with their lines. *)
let exports mli =
  let modname = module_name mli in
  String.split_on_char '\n' (read_file mli)
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter_map (fun (line, text) ->
         if not (starts_with "val " text) then None
         else
           let rest = String.sub text 4 (String.length text - 4) in
           let len = ref 0 in
           while !len < String.length rest && is_ident_char rest.[!len] do
             incr len
           done;
           Some { file = mli; line; modname; value = String.sub rest 0 !len })

(* ------------------------------------------------------------------ *)
(* References *)

(* Calls [f modname value] for every reference in one .ml. [has m v]
   says whether some lib module named [m] exports [v]. *)
let references ~has toks f =
  let n = Array.length toks in
  let aliases = Hashtbl.create 8 in
  let resolve m = Option.value (Hashtbl.find_opt aliases m) ~default:m in
  (* Opens in force for the rest of the file, and the local opens of
     the enclosing brackets ([None] for a plain bracket). *)
  let file_opens = ref [] in
  let brackets = ref [] in
  (* The module path starting at [i]: its components and the index
     just past it. *)
  let path i =
    let rec go i acc =
      match if i < n then toks.(i) else Sym with
      | Uid m when i + 2 < n && toks.(i + 1) = Dot -> (
        match toks.(i + 2) with
        | Uid _ -> go (i + 2) (m :: acc)
        | _ -> (List.rev (m :: acc), i + 1))
      | Uid m -> (List.rev (m :: acc), i + 1)
      | _ -> (List.rev acc, i)
    in
    go i []
  in
  let last l = List.nth l (List.length l - 1) in
  let target = function [ m ] -> resolve m | l -> last l in
  let rec go i =
    if i < n then
      match toks.(i) with
      | Lid ("open" | "include") ->
        let j = if i + 1 < n && toks.(i + 1) = Sym then i + 2 else i + 1 in
        let p, k = path j in
        if p <> [] then file_opens := target p :: !file_opens;
        go k
      | Lid "module" when i + 3 < n && toks.(i + 2) = Eq -> (
        match (toks.(i + 1), path (i + 3)) with
        | Uid x, ((_ :: _ as p), k)
          when k >= n || (toks.(k) <> Dot && toks.(k) <> Open '(') ->
          Hashtbl.replace aliases x (target p);
          go k
        | _ -> go (i + 1))
      | Uid _ -> (
        let p, k = path i in
        let m = target p in
        if k + 1 < n && toks.(k) = Dot then
          match toks.(k + 1) with
          | Lid v ->
            f m v;
            go (k + 2)
          | Open _ ->
            brackets := Some m :: !brackets;
            go (k + 2)
          | _ -> go (k + 1)
        else go k)
      | Open _ ->
        brackets := None :: !brackets;
        go (i + 1)
      | Close ->
        (match !brackets with _ :: rest -> brackets := rest | [] -> ());
        go (i + 1)
      | Dot -> (
        (* A field or method after a value: not a module's value. *)
        match toks.(min (i + 1) (n - 1)) with
        | Lid _ -> go (i + 2)
        | _ -> go (i + 1))
      | Lid v ->
        let scope = List.filter_map Fun.id !brackets @ !file_opens in
        List.iter (fun m -> if has m v then f m v) scope;
        go (i + 1)
      | Eq | Sym -> go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Allowlist: [Module.value  reason] per line; [#] starts a comment. *)

let allowlist file =
  String.split_on_char '\n' (read_file file)
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')
  |> List.map (fun (lineno, line) ->
         match String.index_opt line ' ' with
         | Some k ->
           let reason = String.sub line k (String.length line - k) in
           (lineno, String.sub line 0 k, String.trim reason)
         | None -> (lineno, line, ""))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] | [ _ ] ->
    prerr_endline "usage: export_lint ALLOWLIST FILE... -- TEST_FILE...";
    exit 2
  | allow_file :: args ->
    let rec split acc = function
      | "--" :: tests -> (List.rev acc, tests)
      | f :: rest -> split (f :: acc) rest
      | [] -> (List.rev acc, [])
    in
    let files, tests = split [] args in
    let mlis = List.filter (ends_with ".mli") files in
    let mls = List.filter (ends_with ".ml") files in
    let all = List.concat_map exports mlis in
    let table = Hashtbl.create 1024 in
    List.iter (fun e -> Hashtbl.replace table (e.modname, e.value) ()) all;
    let has m v = Hashtbl.mem table (m, v) in
    (* (module, value) -> the .ml files referring to it. *)
    let used = Hashtbl.create 1024 in
    List.iter
      (fun ml ->
        references ~has (tokens (read_file ml)) (fun m v ->
            if has m v then Hashtbl.add used (m, v) ml))
      mls;
    let tested = Hashtbl.create 256 in
    List.iter
      (fun ml ->
        references ~has (tokens (read_file ml)) (fun m v ->
            Hashtbl.replace tested (m ^ "." ^ v) ()))
      tests;
    (* A reference counts unless it comes from the value's own .ml. *)
    let called e =
      let own = Filename.remove_extension e.file ^ ".ml" in
      List.exists (fun ml -> ml <> own)
        (Hashtbl.find_all used (e.modname, e.value))
    in
    let allowed = allowlist allow_file in
    let failures = ref 0 in
    let fail fmt =
      incr failures;
      Printf.eprintf fmt
    in
    List.iter
      (fun (lineno, key, reason) ->
        let named = List.filter (fun e -> qualified e = key) all in
        let where = Printf.sprintf "%s:%d: %s" allow_file lineno key in
        if reason = "" then fail "%s: entry gives no reason\n" where;
        if named = [] then fail "%s: no such lib export\n" where
        else if List.exists called named then
          fail "%s: has a caller; drop the entry\n" where
        else if not (Hashtbl.mem tested key) then
          fail "%s: no test refers to it; delete the value and the entry\n"
            where)
      allowed;
    let is_allowed e =
      List.exists (fun (_, key, _) -> key = qualified e) allowed
    in
    List.iter
      (fun e ->
        if not (called e || is_allowed e) then
          fail "%s:%d: %s has no caller outside its module\n" e.file e.line
            (qualified e))
      all;
    if !failures > 0 then begin
      Printf.eprintf
        "export_lint: %d failure%s; un-export or delete the value, or \
         allowlist it with a reason in %s\n"
        !failures
        (if !failures = 1 then "" else "s")
        allow_file;
      exit 1
    end
    else
      Printf.printf "export_lint: %d exports in %d interfaces, %d allowlisted\n"
        (List.length all) (List.length mlis) (List.length allowed)
