open Peering_net
module Rng = Peering_sim.Rng
module Gen = Peering_topo.Gen
module As_graph = Peering_topo.As_graph

type site = {
  rank : int;
  fqdn : string;
  addr : Ipv4.t;
  resources : string list;
}

type t = { sites : site list; dns : Dns.t }

(* The workload's shape: sites, mean embedded resources per page, the
   pool of distinct resource hosts, and the probability that a
   resource FQDN or a homepage sits on a Content-kind AS (homepages
   sit on origin infrastructure more often than resources do). *)
let n_sites = 500
let mean_resources = 99.5
let n_resource_fqdns = 4_200
let cdn_share = 0.5
let site_cdn_share = 0.18

(* The ASes hosts are drawn from, built once per [generate]. *)
type pools = {
  content : Asn.t array;
  content_rank : Rng.t -> int;  (* Zipf rank in [1, |content|] *)
  others : Asn.t array;
}

let pools (world : Gen.world) =
  let content = Array.of_list world.Gen.content in
  { content;
    content_rank = Rng.zipf_sampler ~n:(Array.length content) ~s:1.0;
    others = Array.of_list (world.Gen.stubs @ world.Gen.small_transit)
  }

(* Pick a host address: an AS of the wanted kind, one of its prefixes,
   a host inside it. Content ASes are picked Zipf-style so a few CDNs
   dominate, mirroring real traffic concentration. *)
let pick_host rng (world : Gen.world) pools ~prefer_cdn =
  let asn =
    if prefer_cdn && Array.length pools.content > 0 then
      pools.content.(pools.content_rank rng - 1)
    else pools.others.(Rng.int rng (Array.length pools.others))
  in
  match As_graph.prefixes_of world.Gen.graph asn with
  | [] -> None
  | prefixes ->
    let parr = Array.of_list prefixes in
    let p = parr.(Rng.int rng (Array.length parr)) in
    let host_offset = 1 + Rng.int rng (max 1 (Prefix.size p - 2)) in
    Some (asn, Ipv4.add (Prefix.addr p) host_offset)

let generate ~rng (world : Gen.world) =
  let pools = pools world in
  let dns = Dns.create () in
  (* CDN frontends serve many names from one address: FQDNs landing on
     the same hosting AS reuse one of its existing server addresses
     with some probability, so distinct IPs < distinct FQDNs (the paper
     saw 2,757 IPs for 4,182 FQDNs). *)
  let server_cache : (int, Ipv4.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let host_address asn fresh_addr =
    let cache =
      match Hashtbl.find_opt server_cache (Asn.to_int asn) with
      | Some c -> c
      | None ->
        let c = ref [] in
        Hashtbl.replace server_cache (Asn.to_int asn) c;
        c
    in
    match !cache with
    | existing :: _ when Rng.bernoulli rng 0.75 ->
      let arr = Array.of_list !cache in
      ignore existing;
      Rng.choice rng arr
    | _ ->
      cache := fresh_addr :: !cache;
      fresh_addr
  in
  (* Resource FQDN pool: pre-assign each a hosting AS and address. *)
  let pool =
    Array.init n_resource_fqdns (fun i ->
        let fqdn = Printf.sprintf "r%d.cdn-host.example" i in
        let prefer_cdn = Rng.bernoulli rng cdn_share in
        match pick_host rng world pools ~prefer_cdn with
        | Some (asn, addr) ->
          let addr = host_address asn addr in
          Dns.add_a dns fqdn addr;
          fqdn
        | None -> fqdn)
  in
  (* Zipf sampler over the pool: popular CDNs host many resources. *)
  let sample_fqdn = Rng.zipf_sampler ~n:n_resource_fqdns ~s:0.9 in
  let sites =
    List.init n_sites (fun i ->
        let rank = i + 1 in
        let fqdn = Printf.sprintf "site%d.example" rank in
        let prefer_cdn = Rng.bernoulli rng site_cdn_share in
        let addr =
          match pick_host rng world pools ~prefer_cdn with
          | Some (_, addr) -> addr
          | None -> Ipv4.of_octets 192 0 2 1
        in
        Dns.add_a dns fqdn addr;
        (* Resource count: exponential around the mean, at least 5. *)
        let n_res =
          max 5 (int_of_float (Rng.exponential rng ~mean:mean_resources))
        in
        let resources =
          List.init n_res (fun _ -> pool.(sample_fqdn rng - 1))
        in
        { rank; fqdn; addr; resources })
  in
  { sites; dns }

let total_resources t =
  List.fold_left (fun acc s -> acc + List.length s.resources) 0 t.sites

let distinct_resource_fqdns t =
  let set = Hashtbl.create 1024 in
  List.iter
    (fun s -> List.iter (fun r -> Hashtbl.replace set r ()) s.resources)
    t.sites;
  Hashtbl.fold (fun k () acc -> k :: acc) set [] |> List.sort String.compare

let distinct_resource_addrs t =
  let set = Hashtbl.create 1024 in
  List.iter
    (fun fqdn ->
      List.iter
        (fun a -> Hashtbl.replace set (Ipv4.to_int a) a)
        (Dns.resolve t.dns fqdn))
    (distinct_resource_fqdns t);
  Hashtbl.fold (fun _ a acc -> a :: acc) set [] |> List.sort Ipv4.compare
