open Peering_net

(* The most prefixes one experiment may hold. *)
let max_prefixes = 4

type t = {
  mutable pool : Prefix_pool.t;
  mutable experiments : Experiment.t list;
  mutable next_private_asn : int;
}

let create ~supply =
  { pool = Prefix_pool.create supply;
    experiments = [];
    next_private_asn = 64512
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

let alloc_asn t =
  let a = t.next_private_asn in
  t.next_private_asn <- t.next_private_asn + 1;
  Asn.of_int a

let propose t ~id ~owner ~description ?(n_prefixes = 1) ?(may_poison = false)
    () =
  if find_experiment t id <> None then Error "duplicate experiment id"
  else if String.length (String.trim description) < 20 then
    Error "description too short for vetting"
  else if n_prefixes < 1 || n_prefixes > max_prefixes then
    Error (Printf.sprintf "experiments may hold 1-%d prefixes" max_prefixes)
  else if Prefix_pool.available t.pool < n_prefixes then
    Error "prefix pool exhausted"
  else begin
    let e = Experiment.make ~id ~owner ~may_poison () in
    (match alloc_prefixes t n_prefixes with
    | Some ps -> e.Experiment.prefixes <- ps
    | None -> assert false (* availability checked above *));
    e.Experiment.private_asns <- [ alloc_asn t ];
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
    e.Experiment.prefixes <- [])

let owns t p = Prefix_pool.mem_supply p t.pool
let available_blocks t = Prefix_pool.available t.pool
let donate_supply t p = t.pool <- Prefix_pool.add_supply p t.pool
