(* Export linter: every top-level [val] of a library interface must have
   a caller outside its own module, and every knob of the library two
   production values.

   Usage: export_lint ALLOWLIST FILE... -- TEST_FILE...

   The FILEs are every [lib/**/*.mli] and every [.ml] of lib, bin,
   bench, perfbench and examples; the TEST_FILEs are the [.ml] files
   of the test suite. Each top-level [val] (one starting at column 0)
   of a lib interface needs a reference from some FILE other than its
   own implementation, or an ALLOWLIST line [Module.value  reason]
   saying which test needs it. An entry that no TEST_FILE refers to is
   stale and fails too: it would hide a value nothing calls.

   A knob with one production value is a constant. Four kinds are
   checked:
   - Each [?lab:] parameter of such a [val]'s signature needs some
     production call (in any FILE, the value's own module included)
     that passes it, and either a call that omits it or two calls that
     pass different values.
   - Each required [lab:] parameter of such a [val]'s signature fails
     when every production call passes it one numeric, boolean or
     constant-constructor literal. A string names something, so a
     string literal never fails, and a call that omits the label
     counts as a distinct value.
   - A config record is a record type of a lib interface whose module
     also exports a value of that type or a function returning one
     (its default). A field fails when the default gives it a literal
     and no production record expression ([{ … with f = v }], a full
     literal or a [r.f <- v]) sets it outside the default's own
     definition. Fields are matched by name only, so a name shared
     with another record can hide a finding but never invent one.
   - A top-level [let] of a lib [.ml] that registers a metric
     ([Metrics.counter], [gauge], [histogram] or any [Metrics.Family]
     constructor) fails when nothing else refers to its name: a
     counter nothing can move reads 0 whatever happens.

   A call passes the [~lab]/[?lab] arguments found after the reference
   at bracket depth 0, up to a closing bracket, [=], [,], [;], an infix
   operator or keyword, [in], [let], [then], [else], [with], [and],
   [do], [done] or [end]. An integer, float, string or character
   literal, [true]/[false] and a constant constructor are literals; any
   other value (a variable, an expression, [?lab] forwarding, [~lab]
   punning) counts as distinct from every other. A reference whose
   arguments cannot be seen — bound to a name, passed as an argument,
   or inside a local open — passes every label with distinct values.
   A label or field that fails needs an ALLOWLIST line
   [Module.value ?lab  reason], [Module.value ~lab  reason] or
   [Module.type.field  reason]; such an entry is stale once production
   gives it a second value, or when no TEST_FILE passes or sets it.

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
   unused value or a one-value knob but never reports a used one. *)

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
(* Lexer: identifiers, labels, literals, brackets and operators. *)

type tok =
  | Uid of string
  | Lid of string
  | Dot
  | Open of char  (** '(' '[' or '{' *)
  | Close
  | Eq  (** a lone '=' *)
  | Label of char * string * bool
      (** ['~'] or ['?'], the label, and whether a [':'] follows it *)
  | Lit of string  (** a number, string or character literal *)
  | Sym of string  (** any other operator or punctuation *)

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
        let j = skip_string (i + 1) in
        push (Lit (String.sub s i (j - i)));
        go j
      | '{' -> (
        match quoted_string i with
        | Some j ->
          push (Lit (String.sub s i (j - i)));
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
        push (Lit (String.sub s i (min n (!j + 1) - i)));
        go (!j + 1)
      | '\'' when i + 2 < n && s.[i + 2] = '\'' ->
        push (Lit (String.sub s i 3));
        go (i + 3)
      | ('~' | '?') as c
        when i + 1 < n && (match s.[i + 1] with 'a' .. 'z' | '_' -> true | _ -> false) ->
        let j = ref (i + 2) in
        while !j < n && is_ident_char s.[!j] do
          incr j
        done;
        let colon = !j < n && s.[!j] = ':' in
        push (Label (c, String.sub s (i + 1) (!j - i - 1), colon));
        go (if colon then !j + 1 else !j)
      | '0' .. '9' ->
        (* A number, with its fraction, exponent and suffix. *)
        let j = ref (i + 1) in
        while
          !j < n
          && (is_ident_char s.[!j]
             || s.[!j] = '.'
             || ((s.[!j] = '+' || s.[!j] = '-')
                && (s.[!j - 1] = 'e' || s.[!j - 1] = 'E')))
        do
          incr j
        done;
        push (Lit (String.sub s i (!j - i)));
        go !j
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
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let j = ref (i + 1) in
        while !j < n && is_ident_char s.[!j] do
          incr j
        done;
        let id = String.sub s i (!j - i) in
        push (match id.[0] with 'A' .. 'Z' -> Uid id | _ -> Lid id);
        go !j
      | c when is_op_char c ->
        let j = ref (i + 1) in
        while !j < n && is_op_char s.[!j] do
          incr j
        done;
        let op = String.sub s i (!j - i) in
        push (if op = "=" then Eq else Sym op);
        go !j
      | c ->
        push (Sym (String.make 1 c));
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
  options : string list;  (** the [?lab:] parameters of its signature *)
  labels : string list;  (** its required [lab:] parameters *)
  returns : string option;  (** its result type, when one bare name *)
}

let qualified e = e.modname ^ "." ^ e.value

let module_name file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* The [?lab:] and [lab:] parameters outside brackets in a signature's
   tokens, and its result type when that is one bare name. *)
let parameters toks =
  let n = Array.length toks in
  let depth = ref 0 and typed = ref false and result = ref 0 in
  let options = ref [] and labels = ref [] in
  Array.iteri
    (fun i t ->
      match t with
      | Open _ -> incr depth
      | Close -> decr depth
      | Sym ":" when !depth = 0 && not !typed ->
        typed := true;
        result := i + 1
      | Sym "->" when !depth = 0 -> result := i + 1
      | Label ('?', lab, true) when !depth = 0 -> options := lab :: !options
      | Lid lab when !depth = 0 && !typed && i + 1 < n && toks.(i + 1) = Sym ":"
        ->
        labels := lab :: !labels
      | _ -> ())
    toks;
  let returns =
    if !result = n - 1 then match toks.(n - 1) with Lid t -> Some t | _ -> None
    else None
  in
  (List.rev !options, List.rev !labels, returns)

(* The top-level [val]s of an interface, with their lines. A
   signature runs on to the next line starting at column 0. *)
let exports mli =
  let modname = module_name mli in
  let lines = Array.of_list (String.split_on_char '\n' (read_file mli)) in
  let n = Array.length lines in
  List.init n Fun.id
  |> List.filter_map (fun i ->
         let text = lines.(i) in
         if not (starts_with "val " text) then None
         else
           let rest = String.sub text 4 (String.length text - 4) in
           let len = ref 0 in
           while !len < String.length rest && is_ident_char rest.[!len] do
             incr len
           done;
           let j = ref (i + 1) in
           while
             !j < n && (lines.(!j) = "" || lines.(!j).[0] = ' ')
           do
             incr j
           done;
           let signature =
             String.concat "\n" (Array.to_list (Array.sub lines i (!j - i)))
           in
           let options, labels, returns = parameters (tokens signature) in
           Some
             {
               file = mli;
               line = i + 1;
               modname;
               value = String.sub rest 0 !len;
               options;
               labels;
               returns;
             })

(* The record types of an interface: (type name, its fields). *)
let record_types mli =
  let toks = tokens (read_file mli) in
  let n = Array.length toks in
  (* A field's name comes first after [{] or [;], maybe after
     [mutable]. *)
  let rec fields i depth first acc =
    if i >= n then List.rev acc
    else
      match toks.(i) with
      | Open _ -> fields (i + 1) (depth + 1) false acc
      | Close ->
        if depth = 1 then List.rev acc else fields (i + 1) (depth - 1) false acc
      | Sym ";" when depth = 1 -> fields (i + 1) depth true acc
      | Lid "mutable" when first -> fields (i + 1) depth true acc
      | Lid f when first -> fields (i + 1) depth false (f :: acc)
      | _ -> fields (i + 1) depth false acc
  in
  let rec go i acc =
    if i + 3 >= n then List.rev acc
    else
      match (toks.(i), toks.(i + 1), toks.(i + 2)) with
      | Lid name, Eq, Open '{' ->
        go (i + 3) ((name, fields (i + 3) 1 true []) :: acc)
      | Lid name, Eq, Lid "private" when toks.(i + 3) = Open '{' ->
        go (i + 4) ((name, fields (i + 4) 1 true []) :: acc)
      | _ -> go (i + 1) acc
  in
  go 0 []

(* The top-level definitions of an .ml, one per line [let v] at column
   0: [(v, first, last)], lines counted from 0. A definition runs on to
   the next line that starts at column 0 with anything but a closing
   bracket. *)
let definitions lines =
  let n = Array.length lines in
  let continues l = l = "" || String.contains " )]}" l.[0] in
  List.init n Fun.id
  |> List.filter_map (fun i ->
         let text = lines.(i) in
         if not (starts_with "let " text) then None
         else
           let rest = String.sub text 4 (String.length text - 4) in
           let rest =
             if starts_with "rec " rest then
               String.sub rest 4 (String.length rest - 4)
             else rest
           in
           let len = ref 0 in
           while !len < String.length rest && is_ident_char rest.[!len] do
             incr len
           done;
           let j = ref (i + 1) in
           while !j < n && continues lines.(!j) do
             incr j
           done;
           if !len = 0 then None
           else Some (String.sub rest 0 !len, i, !j - 1))

(* [lines] with the [(first, last)] spans blanked. *)
let without lines spans =
  String.concat "\n"
    (List.mapi
       (fun i l ->
         if List.exists (fun (first, last) -> i >= first && i <= last) spans
         then ""
         else l)
       (Array.to_list lines))

let span lines (first, last) =
  String.concat "\n" (Array.to_list (Array.sub lines first (last - first + 1)))

(* ------------------------------------------------------------------ *)
(* References *)

(* How a reference was resolved. *)
type via =
  | Path  (** a qualified path, or a bare name after [open] *)
  | Local_open  (** a bare name inside [M.( … )] *)
  | Own  (** a bare name in the module's own implementation *)

(* Calls [f modname value ~start ~at via] for every reference in one
   .ml of module [own]: [start] is the index of the reference's first
   token and [at] that of the value's name. [has m v] says whether
   some lib module named [m] exports [v]. *)
let references ~has ~own toks f =
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
      match if i < n then toks.(i) else Sym "" with
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
  (* A bare name, or a label that may pun one. *)
  let bare i v =
    List.iter
      (function Some m when has m v -> f m v ~start:i ~at:i Local_open | _ -> ())
      !brackets;
    List.iter (fun m -> if has m v then f m v ~start:i ~at:i Path) !file_opens;
    if has own v then f own v ~start:i ~at:i Own
  in
  let rec go i =
    if i < n then
      match toks.(i) with
      | Lid ("open" | "include") ->
        let j =
          match toks.(min (i + 1) (n - 1)) with Sym _ -> i + 2 | _ -> i + 1
        in
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
            f m v ~start:i ~at:(k + 1) Path;
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
      | Lid v | Label (_, v, _) ->
        bare i v;
        go (i + 1)
      | Eq | Lit _ | Sym _ -> go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Applications *)

(* What a call passes for an option: a literal (its text), or
   anything else, which may differ from call to call. *)
type value = Literal of string | Other

(* The labelled arguments of one call: [None] when the lint cannot see
   them, which counts as passing every option with distinct values. *)
type call = (string * value) list option

(* Keywords after which an expression starts, so a value there is
   applied rather than passed as an argument. *)
let expression_start = function
  | "in" | "then" | "else" | "do" | "begin" | "when" | "try" | "match"
  | "if" | "while" | "to" | "downto" | "lazy" | "assert" | "with" | "mod"
  | "land" | "lor" | "lxor" | "lsl" | "lsr" | "asr" | "or" ->
    true
  | _ -> false

(* Tokens that end an application at bracket depth 0. *)
let ends_application = function
  | Close | Eq -> true
  | Sym s -> not (String.contains "!?~#`'" s.[0])
  | Lid
      ( "in" | "let" | "then" | "else" | "with" | "and" | "do" | "done" | "end"
      | "or" | "mod" | "land" | "lor" | "lxor" | "lsl" | "lsr" | "asr" ) ->
    true
  | _ -> false

(* The call whose function is the reference from [start] to [at]. *)
let application toks ~start ~at : call =
  let n = Array.length toks in
  let passed =
    start > 0
    &&
    match toks.(start - 1) with
    | Lid w -> not (expression_start w)
    | Uid _ | Close | Lit _ | Label _ -> true
    | Dot | Open _ | Eq | Sym _ -> false
  in
  (* The value after [~lab:] at [j], and where the scan goes on. *)
  let value j =
    match if j < n then toks.(j) else Sym "" with
    | Lit s | Lid (("true" | "false") as s) -> (Literal s, j + 1)
    | Uid c ->
      (* A constant constructor, maybe qualified. *)
      let rec constr j text =
        if j + 2 < n && toks.(j + 1) = Dot then
          match toks.(j + 2) with
          | Uid c -> constr (j + 2) (text ^ "." ^ c)
          | _ -> (Other, j + 1)
        else (Literal text, j + 1)
      in
      constr j c
    | _ -> (Other, j)
  in
  let rec scan j depth args =
    if j >= n then args
    else
      match toks.(j) with
      | t when depth = 0 && ends_application t -> args
      | Open _ -> scan (j + 1) (depth + 1) args
      | Close -> scan (j + 1) (depth - 1) args
      | Label (_, lab, colon) when depth = 0 ->
        let v, next = if colon then value (j + 1) else (Other, j + 1) in
        scan next depth ((lab, v) :: args)
      | _ -> scan (j + 1) depth args
  in
  let empty = at + 1 >= n || ends_application toks.(at + 1) in
  if passed || empty then None else Some (scan (at + 1) 0 [])

(* A name in [let v], [and v], [type v] or after [:] is a definition
   or a type, not a use of the value. *)
let not_a_use toks start =
  start > 0
  &&
  match toks.(start - 1) with
  | Lid ("let" | "and" | "rec" | "type") | Sym (":" | ":>") -> true
  | _ -> false

(* [Some reason] when [calls] give option [lab] fewer than two values:
   none passes it, or every one passes the same literal. *)
let one_value calls lab =
  let passes =
    List.concat_map
      (function
        | None -> [ Other ]
        | Some args ->
          List.filter_map (fun (l, v) -> if l = lab then Some v else None) args)
      calls
  in
  let omitted =
    List.exists
      (function Some args -> not (List.mem_assoc lab args) | None -> false)
      calls
  in
  match List.sort_uniq compare passes with
  | [] -> Some "no production call passes it"
  | [ Literal l ] when not omitted ->
    Some (Printf.sprintf "every production call passes ~%s:%s" lab l)
  | _ -> None

(* A string or character literal names something rather than tunes it. *)
let is_string l = String.contains "\"{'" l.[0]

(* [Some reason] when [calls] pass required label [lab] one numeric,
   boolean or constant-constructor literal. A call that omits it
   applies the label elsewhere, so it counts as a distinct value. *)
let one_literal calls lab =
  let passed = function
    | Some args -> Option.value (List.assoc_opt lab args) ~default:Other
    | None -> Other
  in
  match List.sort_uniq compare (List.map passed calls) with
  | [ Literal l ] when not (is_string l) ->
    Some (Printf.sprintf "every production call passes ~%s:%s" lab l)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Record expressions and metric registrations *)

(* The fields that record expressions and patterns in [toks] give a
   value, with the value: [f] in [{ f = v }], [{ r with f = v }] and
   [{ f }] (also written [M.f]), and [r.f <- v]. *)
let record_fields toks =
  let n = Array.length toks in
  let ends j =
    j >= n || match toks.(j) with Close | Sym ";" -> true | _ -> false
  in
  (* A literal that makes up the whole value at [j]. *)
  let value j =
    let rec constr j text =
      if j + 2 < n && toks.(j + 1) = Dot then
        match toks.(j + 2) with
        | Uid c -> constr (j + 2) (text ^ "." ^ c)
        | _ -> Other
      else if ends (j + 1) then Literal text
      else Other
    in
    match if j < n then toks.(j) else Sym "" with
    | (Lit s | Lid (("true" | "false") as s)) when ends (j + 1) -> Literal s
    | Sym ("-" | "-.") when j + 2 <= n -> (
      match toks.(j + 1) with
      | Lit s when ends (j + 2) -> Literal ("-" ^ s)
      | _ -> Other)
    | Uid c -> constr j c
    | _ -> Other
  in
  let found = ref [] in
  (* [brackets]: the open brackets, innermost first; [field]: whether a
     field name may start at [i]. *)
  let rec go i brackets field =
    if i < n then
      let in_braces = match brackets with '{' :: _ -> true | _ -> false in
      match toks.(i) with
      | Open c -> go (i + 1) (c :: brackets) (c = '{')
      | Close -> go (i + 1) (match brackets with _ :: b -> b | [] -> []) false
      | Sym ";" | Lid "with" when in_braces -> go (i + 1) brackets true
      | Uid _ when field && i + 1 < n && toks.(i + 1) = Dot ->
        go (i + 2) brackets true
      | Lid f when field && i + 1 < n && toks.(i + 1) = Eq ->
        found := (f, value (i + 2)) :: !found;
        go (i + 2) brackets false
      | Lid f when field && ends (i + 1) ->
        found := (f, Other) :: !found;
        go (i + 1) brackets false
      | Dot when i + 2 < n && toks.(i + 2) = Sym "<-" ->
        (match toks.(i + 1) with
        | Lid f -> found := (f, Other) :: !found
        | _ -> ());
        go (i + 1) brackets false
      | _ -> go (i + 1) brackets false
  in
  go 0 [] false;
  !found

(* Whether a definition's right-hand side registers a metric: a
   [Metrics.counter], [gauge] or [histogram], or any
   [Metrics.Family] constructor. *)
let registers_metric toks =
  let n = Array.length toks in
  let rec rhs i = if i >= n || toks.(i) = Eq then i + 1 else rhs (i + 1) in
  let rec path i acc =
    if i + 2 < n && toks.(i + 1) = Dot then
      match (toks.(i), toks.(i + 2)) with
      | Uid m, Uid _ -> path (i + 2) (m :: acc)
      | Uid m, Lid f -> Some (m :: acc, f)
      | _ -> None
    else None
  in
  match path (rhs 0) [] with
  | Some ("Metrics" :: _, ("counter" | "gauge" | "histogram")) -> true
  | Some ("Family" :: "Metrics" :: _, _) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Allowlist: [Module.value  reason], [Module.value ?lab  reason],
   [Module.value ~lab  reason] or [Module.type.field  reason] per
   line; [#] starts a comment. *)

type knob = Export | Optional of string | Required of string | Field

type entry = { lineno : int; key : string; knob : knob; reason : string }

let allowlist file =
  let word s =
    match String.index_opt s ' ' with
    | Some k -> (String.sub s 0 k, String.trim (String.sub s k (String.length s - k)))
    | None -> (s, "")
  in
  String.split_on_char '\n' (read_file file)
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')
  |> List.map (fun (lineno, line) ->
         let key, rest = word line in
         let label, reason = word rest in
         let lab = String.sub label 1 (max 0 (String.length label - 1)) in
         if starts_with "?" rest then
           { lineno; key; knob = Optional lab; reason }
         else if starts_with "~" rest then
           { lineno; key; knob = Required lab; reason }
         else if List.length (String.split_on_char '.' key) = 3 then
           { lineno; key; knob = Field; reason = rest }
         else { lineno; key; knob = Export; reason = rest })

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
    let implementation mli = Filename.remove_extension mli ^ ".ml" in
    let all = List.concat_map exports mlis in
    let table = Hashtbl.create 1024 in
    List.iter (fun e -> Hashtbl.replace table (e.modname, e.value) ()) all;
    let has m v = Hashtbl.mem table (m, v) in
    (* Walks every reference of [files], with the file and its call. *)
    let scan files f =
      List.iter
        (fun ml ->
          let toks = tokens (read_file ml) in
          references ~has ~own:(module_name ml) toks
            (fun m v ~start ~at via ->
              if has m v && not (not_a_use toks start) then
                let call =
                  if via = Local_open then None
                  else application toks ~start ~at
                in
                f ml (m, v) via call))
        files
    in
    (* (module, value) -> the .ml files referring to it from outside,
       and the calls of it anywhere in production. *)
    let used = Hashtbl.create 1024 and calls = Hashtbl.create 1024 in
    scan mls (fun ml key via call ->
        if via <> Own then Hashtbl.add used key ml;
        Hashtbl.add calls key call);
    let tested = Hashtbl.create 256 and test_calls = Hashtbl.create 256 in
    scan tests (fun _ (m, v) _ call ->
        Hashtbl.replace tested (m ^ "." ^ v) ();
        Hashtbl.add test_calls (m, v) call);
    (* A reference counts unless it comes from the value's own .ml. *)
    let called e =
      List.exists (fun ml -> ml <> implementation e.file)
        (Hashtbl.find_all used (e.modname, e.value))
    in
    let calls_of e = Hashtbl.find_all calls (e.modname, e.value) in
    let tested_with e lab =
      List.exists
        (function Some args -> List.mem_assoc lab args | None -> false)
        (Hashtbl.find_all test_calls (e.modname, e.value))
    in
    (* Config records: (module, type, field, the literal its defaults
       give it), for each field every default gives one literal. The
       fields production sets outside those defaults, and the fields
       tests set. *)
    let defaults = Hashtbl.create 64 and n_fields = ref 0 in
    let configs =
      List.concat_map
        (fun mli ->
          let modname = module_name mli in
          let ml = implementation mli in
          let lines =
            if List.mem ml mls then
              Array.of_list (String.split_on_char '\n' (read_file ml))
            else [||]
          in
          let defs = definitions lines in
          List.concat_map
            (fun (ty, fields) ->
              (* The defaults of [ty], with their definitions' spans. *)
              let defaults_of_ty =
                List.filter_map
                  (fun e ->
                    if e.file = mli && e.returns = Some ty then
                      List.find_map
                        (fun (v, first, last) ->
                          if v = e.value then Some (e, (first, last)) else None)
                        defs
                    else None)
                  all
              in
              let spans = List.map snd defaults_of_ty in
              List.iter (fun s -> Hashtbl.add defaults ml s) spans;
              if spans <> [] then
                n_fields := !n_fields + List.length fields;
              let given =
                List.concat_map
                  (fun s -> record_fields (tokens (span lines s)))
                  spans
              in
              List.filter_map
                (fun f ->
                  match
                    ( defaults_of_ty,
                      List.sort_uniq compare
                        (List.filter_map
                           (fun (g, v) -> if g = f then Some v else None)
                           given) )
                  with
                  | (e, _) :: _, [ Literal l ] ->
                    Some (e, String.concat "." [ modname; ty; f ], f, l)
                  | _ -> None)
                fields)
            (record_types mli))
        mlis
    in
    let set_in file text =
      List.map fst (record_fields (tokens text))
      |> List.iter (fun f -> Hashtbl.replace file f ())
    in
    let prod_set = Hashtbl.create 256 and test_set = Hashtbl.create 256 in
    List.iter
      (fun ml ->
        let lines =
          Array.of_list (String.split_on_char '\n' (read_file ml))
        in
        set_in prod_set (without lines (Hashtbl.find_all defaults ml)))
      mls;
    List.iter (fun t -> set_in test_set (read_file t)) tests;
    let allowed = allowlist allow_file in
    let failures = ref 0 in
    let fail fmt =
      incr failures;
      Printf.eprintf fmt
    in
    List.iter
      (fun { lineno; key; knob; reason } ->
        let named = List.filter (fun e -> qualified e = key) all in
        let where = Printf.sprintf "%s:%d: %s" allow_file lineno key in
        if reason = "" then fail "%s: entry gives no reason\n" where;
        match knob with
        | Export ->
          if named = [] then fail "%s: no such lib export\n" where
          else if List.exists called named then
            fail "%s: has a caller; drop the entry\n" where
          else if not (Hashtbl.mem tested key) then
            fail "%s: no test refers to it; delete the value and the entry\n"
              where
        | Optional lab -> (
          let where = where ^ " ?" ^ lab in
          match List.filter (fun e -> List.mem lab e.options) named with
          | [] -> fail "%s: no such optional parameter\n" where
          | e :: _ ->
            if one_value (calls_of e) lab = None then
              fail "%s: has two production values; drop the entry\n" where
            else if not (tested_with e lab) then
              fail "%s: no test passes it; delete the option and the entry\n"
                where)
        | Required lab -> (
          let where = where ^ " ~" ^ lab in
          match List.filter (fun e -> List.mem lab e.labels) named with
          | [] -> fail "%s: no such required label\n" where
          | e :: _ ->
            if one_literal (calls_of e) lab = None then
              fail "%s: has two production values; drop the entry\n" where
            else if not (tested_with e lab) then
              fail "%s: no test passes it; delete the label and the entry\n"
                where)
        | Field -> (
          match List.find_opt (fun (_, k, _, _) -> k = key) configs with
          | None ->
            fail "%s: no such config field with a literal default\n" where
          | Some (_, _, f, _) ->
            if Hashtbl.mem prod_set f then
              fail "%s: production sets it; drop the entry\n" where
            else if not (Hashtbl.mem test_set f) then
              fail "%s: no test sets it; delete the field and the entry\n"
                where))
      allowed;
    let is_allowed key knob =
      List.exists (fun a -> a.key = key && a.knob = knob) allowed
    in
    List.iter
      (fun e ->
        if not (called e || is_allowed (qualified e) Export) then
          fail "%s:%d: %s has no caller outside its module\n" e.file e.line
            (qualified e);
        List.iter
          (fun lab ->
            match one_value (calls_of e) lab with
            | Some why when not (is_allowed (qualified e) (Optional lab)) ->
              fail "%s:%d: %s ?%s: %s\n" e.file e.line (qualified e) lab why
            | _ -> ())
          e.options;
        List.iter
          (fun lab ->
            match one_literal (calls_of e) lab with
            | Some why when not (is_allowed (qualified e) (Required lab)) ->
              fail "%s:%d: %s ~%s: %s\n" e.file e.line (qualified e) lab why
            | _ -> ())
          e.labels)
      all;
    List.iter
      (fun (e, key, f, l) ->
        if not (Hashtbl.mem prod_set f || is_allowed key Field) then
          fail "%s:%d: %s: no production record sets it; %s gives it %s\n"
            e.file e.line key e.value l)
      configs;
    (* Metric registrations nothing else refers to. *)
    let metrics = ref 0 in
    List.iter
      (fun ml ->
        if List.mem (ml ^ "i") mlis then begin
          let lines = Array.of_list (String.split_on_char '\n' (read_file ml)) in
          List.iter
            (fun (v, first, last) ->
              if registers_metric (tokens (span lines (first, last))) then begin
                incr metrics;
                let rest = tokens (without lines [ (first, last) ]) in
                let refers = function
                  | Lid w | Label (_, w, _) -> w = v
                  | _ -> false
                in
                if
                  not
                    (Array.exists refers rest
                    || Hashtbl.mem used (module_name ml, v))
                then
                  fail "%s:%d: %s registers a metric that nothing updates\n" ml
                    (first + 1) v
              end)
            (definitions lines)
        end)
      mls;
    Printf.printf
      "export_lint: %d exports in %d interfaces, %d optional parameters, %d \
       required labels, %d config fields, %d metrics, %d allowlisted\n"
      (List.length all) (List.length mlis)
      (List.fold_left (fun n e -> n + List.length e.options) 0 all)
      (List.fold_left (fun n e -> n + List.length e.labels) 0 all)
      !n_fields !metrics (List.length allowed);
    if !failures > 0 then begin
      Printf.eprintf
        "export_lint: %d failure%s; un-export or delete the value, make the \
         knob a constant, or allowlist it with a reason in %s\n"
        !failures
        (if !failures = 1 then "" else "s")
        allow_file;
      exit 1
    end
