type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type t = {
  code : string;
  severity : severity;
  file : string option;
  line : int option;
  message : string;
  hint : string option;
}

let make severity ?file ?line ?hint ~code message =
  { code; severity; file; line; message; hint }

let error ?file ?line ?hint ~code message =
  make Error ?file ?line ?hint ~code message

let warning ?file ?line ?hint ~code message =
  make Warning ?file ?line ?hint ~code message

let with_file file t =
  match t.file with Some _ -> t | None -> { t with file = Some file }

let compare a b =
  let c =
    Option.compare String.compare a.file b.file
  in
  if c <> 0 then c
  else
    let c = Option.compare Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
      if c <> 0 then c else String.compare a.code b.code

let sort l = List.sort compare l

let count sev l = List.length (List.filter (fun d -> d.severity = sev) l)

let to_string t =
  let loc =
    match (t.file, t.line) with
    | Some f, Some l -> Printf.sprintf "%s:%d: " f l
    | Some f, None -> Printf.sprintf "%s: " f
    | None, Some l -> Printf.sprintf "line %d: " l
    | None, None -> ""
  in
  let hint =
    match t.hint with None -> "" | Some h -> Printf.sprintf "\n  hint: %s" h
  in
  Printf.sprintf "%s%s: [%s] %s%s" loc
    (severity_to_string t.severity)
    t.code t.message hint
