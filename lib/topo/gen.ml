open Peering_net
module Rng = Peering_sim.Rng

type params = {
  seed : int;
  n_tier1 : int;
  n_large_transit : int;
  n_small_transit : int;
  n_stub : int;
  n_content : int;
  target_prefixes : int;
}

let default_params =
  { seed = 1;
    n_tier1 = 12;
    n_large_transit = 40;
    n_small_transit = 300;
    n_stub = 3000;
    n_content = 60;
    target_prefixes = 30_000
  }

let paper_scale_params =
  { seed = 1;
    n_tier1 = 13;
    n_large_transit = 250;
    n_small_transit = 5_000;
    n_stub = 40_000;
    n_content = 400;
    target_prefixes = 500_000
  }

type world = {
  graph : As_graph.t;
  tier1 : Asn.t list;
  large_transit : Asn.t list;
  small_transit : Asn.t list;
  stubs : Asn.t list;
  content : Asn.t list;
}

(* Sequential /24 allocator over the 16.0.0.0/4 region (1M blocks). *)
type cursor = { mutable next : int }

let block_base = 16 lsl 24 (* 16.0.0.0 as /24 index space base, in addresses *)

let next_block cur =
  let addr = block_base + (cur.next lsl 8) in
  cur.next <- cur.next + 1;
  if addr land 0xF0000000 <> 0x10000000 then
    failwith "Gen: prefix space exhausted";
  Prefix.make (Ipv4.of_int addr) 24

let originate_n graph cur asn n =
  for _ = 1 to n do
    As_graph.originate graph asn (next_block cur)
  done

(* Relative prefix weight by AS kind; scaled to hit target_prefixes. *)
let weight_of_kind rng = function
  | As_graph.Tier1 -> 30 + Rng.int rng 20
  | As_graph.Large_transit -> 12 + Rng.int rng 18
  | As_graph.Small_transit -> 4 + Rng.int rng 8
  | As_graph.Stub -> 1 + Rng.int rng 3
  | As_graph.Content -> 15 + Rng.int rng 30
  | As_graph.Enterprise -> 1

let country_for ~zipf rng kind =
  let n = Array.length Country.pool in
  match kind with
  | As_graph.Tier1 | As_graph.Large_transit ->
    (* Big networks concentrate in the first dozen countries. *)
    Country.pool.(Rng.int rng (min 12 n))
  | As_graph.Content -> Country.pool.(Rng.int rng (min 20 n))
  | As_graph.Small_transit | As_graph.Stub | As_graph.Enterprise ->
    (* Zipf-ish spread across the whole pool. *)
    Country.pool.(zipf rng - 1)

let generate p =
  let rng = Rng.create p.seed in
  let zipf = Rng.zipf_sampler ~n:(Array.length Country.pool) ~s:1.35 in
  let graph = As_graph.create () in
  let next_asn = ref 0 in
  let fresh kind name_prefix =
    incr next_asn;
    let asn = Asn.of_int !next_asn in
    let country = country_for ~zipf rng kind in
    As_graph.add_as graph
      ~name:(Printf.sprintf "%s-%d" name_prefix !next_asn)
      ~country ~kind asn;
    asn
  in
  let tier1 = List.init p.n_tier1 (fun _ -> fresh As_graph.Tier1 "T1") in
  let large =
    List.init p.n_large_transit (fun _ -> fresh As_graph.Large_transit "LT")
  in
  let small =
    List.init p.n_small_transit (fun _ -> fresh As_graph.Small_transit "ST")
  in
  let stubs = List.init p.n_stub (fun _ -> fresh As_graph.Stub "STUB") in
  let content = List.init p.n_content (fun _ -> fresh As_graph.Content "CDN") in
  let tier1_a = Array.of_list tier1 in
  let large_a = Array.of_list large in
  let small_a = Array.of_list small in
  (* Tier-1 clique: full mesh of peering. *)
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b -> if i < j then As_graph.add_edge graph a Relationship.Peer b)
        tier1)
    tier1;
  let connect_providers asn pool n =
    (* draw [n] distinct providers from [pool] *)
    let chosen = Hashtbl.create 4 in
    let attempts = ref 0 in
    while Hashtbl.length chosen < n && !attempts < 20 do
      incr attempts;
      let c = Rng.choice rng pool in
      if (not (Hashtbl.mem chosen (Asn.to_int c))) && not (Asn.equal c asn)
      then Hashtbl.replace chosen (Asn.to_int c) c
    done;
    Hashtbl.iter
      (fun _ provider ->
        As_graph.add_edge graph provider Relationship.Customer asn)
      chosen
  in
  (* Large transits: 1-3 tier-1 providers; some peer with each other. *)
  List.iter
    (fun a ->
      connect_providers a tier1_a (1 + Rng.int rng 3))
    large;
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j && Rng.bernoulli rng 0.15 then
            As_graph.add_edge graph a Relationship.Peer b)
        large)
    large;
  (* Customer attachment below the tier-1 clique is Zipf-skewed:
     a handful of transit networks attract most customers, producing
     the heavy-tailed customer-cone distribution of the real Internet
     (a few transit ASes with cones of tens of thousands of prefixes,
     a long tail of tiny cones). *)
  let zipf_picker arr s =
    let n = Array.length arr in
    if n = 0 then fun () -> invalid_arg "Gen: empty provider pool"
    else
      let sample = Rng.zipf_sampler ~n ~s in
      fun () -> arr.(sample rng - 1)
  in
  (* The first few large transits are "hypergiants" (the Hurricane
     Electrics of this world): they attract over half of all
     small-transit customers between them, giving them customer cones
     of tens of thousands of prefixes while the rest keep modest
     cones. *)
  let n_hyper = min 6 (Array.length large_a) in
  let pick_large =
    let hyper = Array.sub large_a 0 n_hyper in
    let rest =
      if Array.length large_a > n_hyper then
        Array.sub large_a n_hyper (Array.length large_a - n_hyper)
      else hyper
    in
    let pick_rest = zipf_picker rest 0.7 in
    fun () ->
      if Rng.bernoulli rng 0.7 then Rng.choice rng hyper else pick_rest ()
  in
  (* Small transits: providers among large transit (occasionally tier-1),
     chosen preferentially. *)
  List.iter
    (fun a ->
      if Rng.bernoulli rng 0.1 then connect_providers a tier1_a 1
      else begin
        let n = 1 + Rng.int rng 2 in
        let chosen = Hashtbl.create 4 in
        let attempts = ref 0 in
        while Hashtbl.length chosen < n && !attempts < 20 do
          incr attempts;
          let c = pick_large () in
          if not (Asn.equal c a) then
            Hashtbl.replace chosen (Asn.to_int c) c
        done;
        Hashtbl.iter
          (fun _ p -> As_graph.add_edge graph p Relationship.Customer a)
          chosen
      end)
    small;
  (* Sparse peering among small transits (regional meshes). *)
  let n_small = Array.length small_a in
  if n_small > 1 then begin
    let extra = n_small / 2 in
    for _ = 1 to extra do
      let a = Rng.choice rng small_a and b = Rng.choice rng small_a in
      if
        (not (Asn.equal a b))
        && As_graph.relationship graph a b = None
      then As_graph.add_edge graph a Relationship.Peer b
    done
  end;
  (* Stubs: 1-2 providers among small (mostly) or large transit, also
     preferentially attached. *)
  let pick_small =
    if Array.length small_a > 0 then zipf_picker small_a 0.7
    else fun () -> Rng.choice rng large_a
  in
  List.iter
    (fun a ->
      let n = 1 + if Rng.bernoulli rng 0.3 then 1 else 0 in
      if Rng.bernoulli rng 0.85 && Array.length small_a > 0 then begin
        let chosen = Hashtbl.create 4 in
        let attempts = ref 0 in
        while Hashtbl.length chosen < n && !attempts < 20 do
          incr attempts;
          let c = pick_small () in
          if not (Asn.equal c a) then Hashtbl.replace chosen (Asn.to_int c) c
        done;
        Hashtbl.iter
          (fun _ p -> As_graph.add_edge graph p Relationship.Customer a)
          chosen
      end
      else connect_providers a large_a n)
    stubs;
  (* Content networks: multihomed to 2-4 providers. *)
  List.iter
    (fun a ->
      let pool = if Rng.bernoulli rng 0.5 then tier1_a else large_a in
      connect_providers a pool (2 + Rng.int rng 3))
    content;
  (* Prefix origination, scaled to the target. *)
  let all = As_graph.ases graph in
  let weights =
    List.map
      (fun asn -> (asn, weight_of_kind rng (As_graph.node_exn graph asn).kind))
      all
  in
  let total_weight = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  let scale = float_of_int p.target_prefixes /. float_of_int total_weight in
  let cur = { next = 0 } in
  List.iter
    (fun (asn, w) ->
      let n = max 1 (int_of_float (Float.round (float_of_int w *. scale))) in
      originate_n graph cur asn n)
    weights;
  { graph; tier1; large_transit = large; small_transit = small; stubs; content }

let all_transit w =
  List.sort Asn.compare (w.tier1 @ w.large_transit @ w.small_transit)
