type add_path_mode = Receive | Send | Send_receive

type t =
  | Four_octet_asn of int
  | Add_path of add_path_mode
  | Route_refresh
  | Graceful_restart of int

let can_send = function Send | Send_receive -> true | Receive -> false
let can_receive = function Receive | Send_receive -> true | Send -> false

let add_path_mode caps =
  List.find_map (function Add_path m -> Some m | _ -> None) caps

let negotiated_add_path local remote =
  match (add_path_mode local, add_path_mode remote) with
  | Some l, Some r ->
    (can_send l && can_receive r) || (can_send r && can_receive l)
  | _ -> false

let negotiated_four_octet local remote =
  let has = List.exists (function Four_octet_asn _ -> true | _ -> false) in
  has local && has remote

let negotiated_graceful_restart local remote =
  let has = List.exists (function Graceful_restart _ -> true | _ -> false) in
  if has local then
    List.find_map
      (function Graceful_restart t -> Some t | _ -> None)
      remote
  else None

let pp ppf = function
  | Four_octet_asn a -> Format.fprintf ppf "4-octet-asn(%d)" a
  | Add_path Receive -> Format.fprintf ppf "add-path(rx)"
  | Add_path Send -> Format.fprintf ppf "add-path(tx)"
  | Add_path Send_receive -> Format.fprintf ppf "add-path(rx/tx)"
  | Route_refresh -> Format.fprintf ppf "route-refresh"
  | Graceful_restart t -> Format.fprintf ppf "graceful-restart(%ds)" t
