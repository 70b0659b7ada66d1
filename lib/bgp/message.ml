open Peering_net

type open_msg = {
  version : int;
  asn : Asn.t;
  hold_time : int;
  router_id : Ipv4.t;
  capabilities : Capability.t list;
}

type path_id = int

type update = {
  withdrawn : (path_id * Prefix.t) list;
  attrs : Attrs.t option;
  nlri : (path_id * Prefix.t) list;
}

type notification = { code : int; subcode : int; reason : string }

type t =
  | Open of open_msg
  | Update of update
  | Keepalive
  | Notification of notification

module Error = struct
  let message_header = 1
  let open_message = 2
  let update_message = 3
  let hold_timer_expired = 4
  let fsm = 5
  let cease = 6
end

let update_of_announce ?(path_id = 0) prefix attrs =
  Update { withdrawn = []; attrs = Some attrs; nlri = [ (path_id, prefix) ] }

let update_of_withdraw prefix =
  Update { withdrawn = [ (0, prefix) ]; attrs = None; nlri = [] }

let pp ppf = function
  | Open o ->
    Format.fprintf ppf "OPEN v%d %a hold=%ds id=%a caps=[%a]" o.version Asn.pp
      o.asn o.hold_time Ipv4.pp o.router_id
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Capability.pp)
      o.capabilities
  | Update u ->
    let pp_pfx ppf (pid, p) =
      if pid = 0 then Prefix.pp ppf p
      else Format.fprintf ppf "%a#%d" Prefix.pp p pid
    in
    Format.fprintf ppf "UPDATE withdraw=[%a] nlri=[%a]%a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
         pp_pfx)
      u.withdrawn
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
         pp_pfx)
      u.nlri
      (fun ppf -> function
        | Some a -> Format.fprintf ppf " %a" Attrs.pp a
        | None -> ())
      u.attrs
  | Keepalive -> Format.fprintf ppf "KEEPALIVE"
  | Notification n ->
    Format.fprintf ppf "NOTIFICATION %d/%d %s" n.code n.subcode n.reason
