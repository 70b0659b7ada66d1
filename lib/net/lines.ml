type error = { line : int option; msg : string }

let error_to_string e =
  match e.line with
  | Some n -> Printf.sprintf "line %d: %s" n e.msg
  | None -> e.msg

type item = Separator | Stmt of { indented : bool; toks : string list }

exception Fail of string

let fail msg = raise (Fail msg)
let is_blank c = c = ' ' || c = '\t'

let classify raw =
  let text =
    match String.index_opt raw '#' with
    | Some j -> String.sub raw 0 j
    | None -> raw
  in
  let trimmed = String.trim text in
  if trimmed = "" then None
  else if trimmed.[0] = '!' then Some Separator
  else
    let toks =
      String.map (fun c -> if is_blank c then ' ' else c) trimmed
      |> String.split_on_char ' '
      |> List.filter (fun s -> s <> "")
    in
    Some (Stmt { indented = is_blank text.[0]; toks })

let read handle finish text =
  let line = ref None in
  try
    List.iteri
      (fun i raw ->
        line := Some (i + 1);
        Option.iter (handle (i + 1)) (classify raw))
      (String.split_on_char '\n' text);
    line := None;
    Ok (finish ())
  with Fail msg -> Error { line = !line; msg }

let token what of_string s =
  match of_string s with
  | Some v -> v
  | None -> fail (Printf.sprintf "bad %s %S" what s)

let asn = token "asn" Asn.of_string
let ipv4 = token "address" Ipv4.of_string
let prefix = token "prefix" Prefix.of_string
let int = token "number" int_of_string_opt

let float =
  token "number" (fun s ->
      Option.bind (float_of_string_opt s) (fun f ->
          if Float.is_finite f then Some f else None))
