open Peering_net

type source = {
  peer_asn : Asn.t;
  peer_addr : Ipv4.t;
  peer_router_id : Ipv4.t;
  ebgp : bool;
}

type t = {
  prefix : Prefix.t;
  attrs : Attrs.t;
  source : source option;
  path_id : int;
  learned_at : float;
}

let make ?source ?(path_id = 0) ?(learned_at = 0.0) prefix attrs =
  { prefix; attrs; source; path_id; learned_at }

let local prefix attrs = make prefix attrs

let is_ebgp t =
  match t.source with Some s -> s.ebgp | None -> false

let source_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y ->
    Asn.equal x.peer_asn y.peer_asn
    && Ipv4.equal x.peer_addr y.peer_addr
    && Ipv4.equal x.peer_router_id y.peer_router_id
    && Bool.equal x.ebgp y.ebgp
  | None, Some _ | Some _, None -> false

let equal a b =
  Prefix.equal a.prefix b.prefix
  && Attrs.equal a.attrs b.attrs
  && source_equal a.source b.source
  && Int.equal a.path_id b.path_id

let pp ppf t =
  Format.fprintf ppf "@[<h>%a %a" Prefix.pp t.prefix Attrs.pp t.attrs;
  (match t.source with
  | Some s -> Format.fprintf ppf " from %a" Asn.pp s.peer_asn
  | None -> Format.fprintf ppf " local");
  if t.path_id <> 0 then Format.fprintf ppf " path-id=%d" t.path_id;
  Format.fprintf ppf "@]"
