open Peering_net
module Engine = Peering_sim.Engine

type t = {
  engine : Engine.t;
  mutable pool : Prefix_pool.t;
  mutable v6_pool : Prefix6.Pool.pool;
  max_prefixes : int;
  mutable experiments : Experiment.t list;
  mutable next_private_asn : int;
  mutable pending : int;
}

(* The paper's planned IPv6 space, leased as /48 experiment blocks. *)
let v6_supply = Prefix6.of_string_exn "2804:269c::/32"

let create engine ~supply ?(alloc_len = 24)
    ?(max_prefixes_per_experiment = 4) () =
  { engine;
    pool = Prefix_pool.create ~alloc_len supply;
    v6_pool = Prefix6.Pool.create ~alloc_len:48 v6_supply;
    max_prefixes = max_prefixes_per_experiment;
    experiments = [];
    next_private_asn = 64512;
    pending = 0
  }

let find_experiment t id =
  List.find_opt (fun e -> e.Experiment.id = id) t.experiments

let alloc_prefixes t n =
  let rec go acc n =
    if n = 0 then Some (List.rev acc)
    else
      match Prefix_pool.alloc t.pool with
      | None -> None
      | Some (p, pool) ->
        t.pool <- pool;
        go (p :: acc) (n - 1)
  in
  go [] n

let alloc_asns t n =
  List.init n (fun _ ->
      let a = t.next_private_asn in
      t.next_private_asn <- t.next_private_asn + 1;
      Asn.of_int a)

let alloc_v6 t n =
  List.init n (fun _ ->
      match Prefix6.Pool.alloc t.v6_pool with
      | Some (p, pool) ->
        t.v6_pool <- pool;
        p
      | None -> invalid_arg "Controller: v6 pool exhausted")

let propose t ~id ~owner ~description ?(n_prefixes = 1) ?(n_v6_prefixes = 0)
    ?(n_private_asns = 1) ?(may_poison = false) ?(may_spoof = false) () =
  if find_experiment t id <> None then Error "duplicate experiment id"
  else if String.length (String.trim description) < 20 then
    Error "description too short for vetting"
  else if n_prefixes < 1 || n_prefixes > t.max_prefixes then
    Error
      (Printf.sprintf "experiments may hold 1-%d prefixes" t.max_prefixes)
  else if Prefix_pool.available t.pool < n_prefixes then
    Error "prefix pool exhausted"
  else begin
    let e =
      Experiment.make ~id ~owner ~description ~may_poison ~may_spoof ()
    in
    (match alloc_prefixes t n_prefixes with
    | Some ps -> e.Experiment.prefixes <- ps
    | None -> assert false (* availability checked above *));
    if n_v6_prefixes > 0 then
      e.Experiment.v6_prefixes <- alloc_v6 t n_v6_prefixes;
    e.Experiment.private_asns <- alloc_asns t n_private_asns;
    e.Experiment.status <- Experiment.Approved;
    t.experiments <- t.experiments @ [ e ];
    Ok e
  end

let activate _t e =
  match e.Experiment.status with
  | Experiment.Approved -> e.Experiment.status <- Experiment.Active
  | _ -> invalid_arg "Controller.activate: experiment not approved"

let stop t e =
  (match e.Experiment.status with
  | Experiment.Stopped -> ()
  | _ ->
    e.Experiment.status <- Experiment.Stopped;
    List.iter
      (fun p ->
        match Prefix_pool.free p t.pool with
        | Ok pool -> t.pool <- pool
        | Error `Not_allocated -> ())
      e.Experiment.prefixes;
    e.Experiment.prefixes <- [];
    List.iter
      (fun p ->
        match Prefix6.Pool.free p t.v6_pool with
        | Ok pool -> t.v6_pool <- pool
        | Error `Not_allocated -> ())
      e.Experiment.v6_prefixes;
    e.Experiment.v6_prefixes <- [])

let experiments t = t.experiments
let owns t p = Prefix_pool.mem_supply p t.pool
let available_blocks t = Prefix_pool.available t.pool
let donate_supply t p = t.pool <- Prefix_pool.add_supply p t.pool

let schedule_announcement t ~at ~action ?notify () =
  t.pending <- t.pending + 1;
  Engine.schedule_at t.engine ~time:at (fun () ->
      t.pending <- t.pending - 1;
      action ();
      match notify with
      | Some f -> f (Engine.now t.engine)
      | None -> ())

let scheduled_count t = t.pending
