open Peering_net

type origin = IGP | EGP | INCOMPLETE

let origin_rank = function IGP -> 0 | EGP -> 1 | INCOMPLETE -> 2

let origin_to_string = function
  | IGP -> "IGP"
  | EGP -> "EGP"
  | INCOMPLETE -> "incomplete"

type t = {
  origin : origin;
  as_path : As_path.t;
  next_hop : Ipv4.t;
  med : int option;
  local_pref : int option;
  atomic_aggregate : bool;
  aggregator : (Asn.t * Ipv4.t) option;
  communities : Community.t list;
}

let make ?(origin = IGP) ?(as_path = As_path.empty) ?med ?local_pref
    ?(atomic_aggregate = false) ?aggregator ?(communities = []) ~next_hop () =
  { origin;
    as_path;
    next_hop;
    med;
    local_pref;
    atomic_aggregate;
    aggregator;
    communities =
      (match communities with
      | [] | [ _ ] -> communities
      | _ -> List.sort_uniq Community.compare communities)
  }

let with_communities cs t =
  { t with communities = List.sort_uniq Community.compare cs }

let add_community c t = { t with communities = Community.add c t.communities }
let has_community c t = Community.mem c t.communities
let prepend_asn a t = { t with as_path = As_path.prepend a t.as_path }
let with_next_hop nh t = { t with next_hop = nh }
let with_local_pref lp t = { t with local_pref = lp }
let with_med med t = { t with med }

let compare a b =
  let cmp_opt c x y =
    match (x, y) with
    | None, None -> 0
    | None, Some _ -> -1
    | Some _, None -> 1
    | Some u, Some v -> c u v
  in
  let ( <?> ) c rest = if c <> 0 then c else rest () in
  Int.compare (origin_rank a.origin) (origin_rank b.origin) <?> fun () ->
  As_path.compare a.as_path b.as_path <?> fun () ->
  Ipv4.compare a.next_hop b.next_hop <?> fun () ->
  cmp_opt Int.compare a.med b.med <?> fun () ->
  cmp_opt Int.compare a.local_pref b.local_pref <?> fun () ->
  Bool.compare a.atomic_aggregate b.atomic_aggregate <?> fun () ->
  cmp_opt
    (fun (x1, y1) (x2, y2) ->
      match Asn.compare x1 x2 with 0 -> Ipv4.compare y1 y2 | c -> c)
    a.aggregator b.aggregator
  <?> fun () -> List.compare Community.compare a.communities b.communities

let equal a b = compare a b = 0

let pp ppf t =
  Format.fprintf ppf "@[<h>origin=%s path=[%a] nh=%a"
    (origin_to_string t.origin) As_path.pp t.as_path Ipv4.pp t.next_hop;
  Option.iter (fun m -> Format.fprintf ppf " med=%d" m) t.med;
  Option.iter (fun l -> Format.fprintf ppf " lp=%d" l) t.local_pref;
  if t.communities <> [] then
    Format.fprintf ppf " comm=%s"
      (String.concat "," (List.map Community.to_string t.communities));
  Format.fprintf ppf "@]"
