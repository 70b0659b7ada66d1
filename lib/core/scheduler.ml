open Peering_net
module Engine = Peering_sim.Engine
module Update_group = Peering_bgp.Update_group
module Attrs = Peering_bgp.Attrs
module As_path = Peering_bgp.As_path
module Metrics = Peering_obs.Metrics
module Span = Peering_obs.Span
module Json = Peering_obs.Json

(* ------------------------------------------------------------------ *)
(* Metrics *)

let m_admitted =
  Metrics.counter ~help:"proposals admitted by the scheduler"
    "core.sched.admitted"

let m_rejected =
  Metrics.counter ~help:"proposals rejected at admission control"
    "core.sched.rejected"

let m_evicted =
  Metrics.counter ~help:"tenants evicted (lease expiry or revocation)"
    "core.sched.evicted"

let m_completed =
  Metrics.counter ~help:"tenants that completed voluntarily"
    "core.sched.completed"

let m_conflicts =
  Metrics.counter ~help:"admission-control conflict issues raised"
    "core.sched.conflicts"

let m_ops_enqueued =
  Metrics.counter ~help:"update requests queued by tenants"
    "core.sched.ops_enqueued"

let m_ops_applied =
  Metrics.counter ~help:"update operations applied by batching rounds"
    "core.sched.ops_applied"

let m_ops_dropped =
  Metrics.counter ~help:"queued update requests dropped by eviction"
    "core.sched.ops_dropped"

let m_op_failures =
  Metrics.counter ~help:"per-site apply failures (safety refusals, mux down)"
    "core.sched.op_failures"

let m_rounds =
  Metrics.counter ~help:"fair-share batching rounds executed"
    "core.sched.rounds"

let m_update_msgs =
  Metrics.counter
    ~help:"RFC 4271 UPDATE messages the granted operations pack into"
    "core.sched.update_msgs"

let m_occupancy =
  Metrics.gauge ~help:"prefix blocks currently out on lease"
    "core.sched.lease_occupancy"

let m_tenant_slots =
  Metrics.Family.histogram
    ~help:"update slots granted to the tenant per batching round"
    "core.sched.tenant_slots"

let m_convergence =
  Metrics.histogram
    ~help:"virtual s from update request to its granted application"
    "core.sched.convergence_s"

(* ------------------------------------------------------------------ *)
(* Fair-share batcher *)

module Batcher = struct
  type 'a tenant_q = { tq_id : string; tq_ops : 'a Queue.t }

  type 'a t = {
    b_quota : int;
    mutable b_order : 'a tenant_q list;  (* first-seen order *)
    mutable b_pending : int;
  }

  let create ~quota =
    if quota <= 0 then invalid_arg "Scheduler.Batcher.create: quota must be > 0";
    { b_quota = quota; b_order = []; b_pending = 0 }

  let quota b = b.b_quota

  let find b tenant = List.find_opt (fun q -> q.tq_id = tenant) b.b_order

  let enqueue b ~tenant op =
    let q =
      match find b tenant with
      | Some q -> q
      | None ->
        let q = { tq_id = tenant; tq_ops = Queue.create () } in
        b.b_order <- b.b_order @ [ q ];
        q
    in
    Queue.add op q.tq_ops;
    b.b_pending <- b.b_pending + 1

  let pending b = b.b_pending

  let pending_for b tenant =
    match find b tenant with Some q -> Queue.length q.tq_ops | None -> 0

  let tenants b = List.map (fun q -> q.tq_id) b.b_order

  let drop_tenant b tenant =
    match find b tenant with
    | None -> 0
    | Some q ->
      let n = Queue.length q.tq_ops in
      b.b_order <- List.filter (fun q' -> q' != q) b.b_order;
      b.b_pending <- b.b_pending - n;
      n

  let drain_round b =
    List.filter_map
      (fun q ->
        let n = min b.b_quota (Queue.length q.tq_ops) in
        if n = 0 then None
        else begin
          let ops = List.init n (fun _ -> Queue.pop q.tq_ops) in
          b.b_pending <- b.b_pending - n;
          Some (q.tq_id, ops)
        end)
      b.b_order

  let drain_all b =
    let rec go acc =
      match drain_round b with [] -> List.rev acc | r -> go (r :: acc)
    in
    go []
end

(* ------------------------------------------------------------------ *)
(* Proposals, issues, verdicts *)

type proposal = {
  p_tenant : string;
  p_owner : string;
  p_description : string;
  p_n_prefixes : int;
  p_may_poison : bool;
  p_poison_targets : Asn.t list;
  p_sites : string list;
  p_lease_s : float option;
}

let proposal ?(owner = "scheduler") ?description ?(n_prefixes = 1)
    ?(may_poison = false) ?(poison_targets = []) ?(sites = []) ?lease_s tenant =
  let description =
    match description with
    | Some d -> d
    | None ->
      Printf.sprintf "scheduled multi-tenant experiment %s (admission test)"
        tenant
  in
  { p_tenant = tenant;
    p_owner = owner;
    p_description = description;
    p_n_prefixes = n_prefixes;
    p_may_poison = may_poison;
    p_poison_targets = poison_targets;
    p_sites = sites;
    p_lease_s = lease_s
  }

type issue = { issue_code : string; issue_message : string }

type verdict = Admitted of { lease_until : float } | Rejected of issue list

let verdict_to_string = function
  | Admitted { lease_until } ->
    Printf.sprintf "admitted until t=%.1f" lease_until
  | Rejected issues ->
    Printf.sprintf "rejected: %s"
      (String.concat ", "
         (List.map (fun i -> i.issue_code) issues))

let error code fmt =
  Printf.ksprintf (fun m -> { issue_code = code; issue_message = m }) fmt

(* ------------------------------------------------------------------ *)
(* Update operations *)

type op_kind =
  | Op_announce of { path_suffix : Asn.t list }
  | Op_withdraw

type op = {
  op_prefix : Prefix.t;
  op_kind : op_kind;
  op_sites : string list;
  op_enqueued : float;
}

type tenant_state = {
  ten_id : string;
  ten_experiment : Experiment.t;
  ten_client : Client.t;
  ten_sites : string list;
  ten_poison : Asn.t list;  (* declared poison targets *)
  mutable ten_lease_until : float;
  mutable ten_lease_gen : int;  (* renewal invalidates scheduled expiry *)
  mutable ten_granted : int;  (* update slots granted so far *)
}

type t = {
  tb : Testbed.t;
  eng : Engine.t;
  round_interval : float;
  batcher : op Batcher.t;
  mutable running : tenant_state list;  (* admission order *)
  mutable finished : (string * string) list;  (* tenant, disposition; newest first *)
  mutable round_scheduled : bool;
  mutable rounds : int;
  mutable applied : int;
  mutable log_rev : string list;
}

let all_site_names tb = List.map Testbed.site_name (Testbed.sites tb)

let logf t fmt =
  Printf.ksprintf (fun s -> t.log_rev <- s :: t.log_rev) fmt

let now t = Engine.now t.eng

let default_lease_s = 3600.0

let create ?(quota = 4) ?(round_interval = 1.0) ?(extra_supply = []) tb =
  let ctl = Testbed.controller tb in
  List.iter (Controller.donate_supply ctl) extra_supply;
  { tb;
    eng = Testbed.engine tb;
    round_interval;
    batcher = Batcher.create ~quota;
    running = [];
    finished = [];
    round_scheduled = false;
    rounds = 0;
    applied = 0;
    log_rev = []
  }

let find_tenant t id = List.find_opt (fun s -> s.ten_id = id) t.running
let is_running t id = find_tenant t id <> None
let tenants t = List.map (fun s -> s.ten_id) t.running

let leased_prefixes t id =
  match find_tenant t id with
  | Some s -> s.ten_experiment.Experiment.prefixes
  | None -> []

let lease_until t id =
  match find_tenant t id with Some s -> Some s.ten_lease_until | None -> None

let client t id =
  match find_tenant t id with Some s -> Some s.ten_client | None -> None

let occupancy t =
  List.fold_left
    (fun acc s -> acc + List.length s.ten_experiment.Experiment.prefixes)
    0 t.running

let set_occupancy t =
  Metrics.Gauge.set m_occupancy (float_of_int (occupancy t))

(* ------------------------------------------------------------------ *)
(* Admission control *)

(* Admission conflicts: the candidate's allocation [exp] and declared
   [poison] targets against every running tenant. Origin ASNs
   need no check here: the controller never hands one out twice. *)
let conflicts t ~tenant ~(exp : Experiment.t) ~poison =
  let issues = ref [] in
  let emit i = issues := i :: !issues in
  (* Declared poison targets must be poisonable at all. *)
  if
    (not exp.Experiment.may_poison)
    && List.exists (fun a -> not (Asn.is_private a)) poison
  then
    emit
      (error "SCHED-POISON"
         "tenant %s declares public poison targets without poisoning approval"
         tenant);
  List.iter
    (fun other ->
      let oexp = other.ten_experiment in
      (* Overlapping leases: should be impossible while leases come
         from one pool, but a donated-supply mistake must not slip
         through to the muxes. *)
      List.iter
        (fun p ->
          List.iter
            (fun q ->
              if Prefix.overlaps p q then
                emit
                  (error "SCHED-XOVERLAP"
                     "tenant %s prefix %s overlaps %s leased by tenant %s"
                     tenant (Prefix.to_string p) (Prefix.to_string q)
                     other.ten_id))
            oexp.Experiment.prefixes)
        exp.Experiment.prefixes;
      (* Poisoning a live tenant's origin ASN withdraws its routes
         from the poisoned AS's viewpoint — sabotage, even if the
         poisoning itself was vetted (XEXP-POISON, hardened to an
         admission error). *)
      List.iter
        (fun a ->
          if List.exists (Asn.equal a) oexp.Experiment.private_asns then
            emit
              (error "SCHED-XPOISON"
                 "tenant %s poison target %s is tenant %s's origin ASN"
                 tenant (Asn.to_string a) other.ten_id))
        poison;
      (* ... and symmetrically: an incoming tenant whose origin ASN a
         running tenant already poisons would be born sabotaged. *)
      List.iter
        (fun a ->
          if List.exists (Asn.equal a) exp.Experiment.private_asns then
            emit
              (error "SCHED-XPOISON"
                 "tenant %s's origin ASN %s is a poison target of tenant %s"
                 tenant (Asn.to_string a) other.ten_id))
        other.ten_poison)
    t.running;
  List.rev !issues

let rec ensure_round_scheduled t =
  if (not t.round_scheduled) && Batcher.pending t.batcher > 0 then begin
    t.round_scheduled <- true;
    Engine.schedule t.eng ~delay:t.round_interval (fun () ->
        t.round_scheduled <- false;
        run_round t;
        ensure_round_scheduled t)
  end

and run_round t =
  let at = now t in
  let grants = Batcher.drain_round t.batcher in
  if grants <> [] then begin
    t.rounds <- t.rounds + 1;
    Metrics.Counter.inc m_rounds;
    let msgs = ref 0 in
    let summaries =
      List.map
        (fun (tenant, ops) ->
          let n = List.length ops in
          (match find_tenant t tenant with
          | None ->
            (* Evicted between enqueue and grant: requests die with
               the lease. *)
            Metrics.Counter.add m_ops_dropped n
          | Some s ->
            s.ten_granted <- s.ten_granted + n;
            Metrics.Histogram.observe
              (Metrics.Family.get m_tenant_slots [ ("tenant", tenant) ])
              (float_of_int n);
            let announces = ref [] in
            let withdraws = ref [] in
            List.iter
              (fun op ->
                Metrics.Histogram.observe m_convergence (at -. op.op_enqueued);
                (match op.op_kind with
                | Op_announce { path_suffix } ->
                  announces :=
                    (op.op_prefix, path_suffix) :: !announces;
                  List.iter
                    (fun (_site, r) ->
                      match r with
                      | Ok () -> ()
                      | Error _ -> Metrics.Counter.inc m_op_failures)
                    (Client.announce s.ten_client ~servers:op.op_sites
                       ~path_suffix op.op_prefix)
                | Op_withdraw ->
                  withdraws := op.op_prefix :: !withdraws;
                  Client.withdraw s.ten_client ~servers:op.op_sites
                    op.op_prefix);
                t.applied <- t.applied + 1;
                Metrics.Counter.inc m_ops_applied)
              ops;
            (* How many RFC 4271 UPDATEs the tenant's grant packs
               into: prefixes sharing a path suffix share attributes
               and therefore a message (Update_group). *)
            let next_hop = Ipv4.of_octets 10 0 0 1 in
            let attrs_of suffix =
              Attrs.make
                ~as_path:
                  (As_path.of_asns (Testbed.peering_asn :: suffix))
                ~next_hop ()
            in
            let nlri =
              List.rev_map (fun (p, sfx) -> (p, attrs_of sfx)) !announces
            in
            msgs := !msgs + Update_group.message_count nlri;
            if !withdraws <> [] then
              msgs :=
                !msgs
                + List.length
                    (Update_group.group_withdrawals (List.rev !withdraws)));
          Printf.sprintf "%s=%d" tenant n)
        grants
    in
    Metrics.Counter.add m_update_msgs !msgs;
    logf t "t=%.1f round %d: %s (%d msgs)" at t.rounds
      (String.concat " " summaries)
      !msgs
  end

(* ------------------------------------------------------------------ *)

let teardown t s ~disposition ~reason =
  let at = now t in
  let dropped = Batcher.drop_tenant t.batcher s.ten_id in
  if dropped > 0 then Metrics.Counter.add m_ops_dropped dropped;
  let prefixes = s.ten_experiment.Experiment.prefixes in
  (* Disconnecting withdraws everything the client announced (the
     server releases the claims); release the rest of the lease
     explicitly in case a prefix was never announced. *)
  List.iter
    (fun site ->
      match Testbed.site t.tb site with
      | Some st -> Client.disconnect s.ten_client (Testbed.site_server st)
      | None -> ())
    s.ten_sites;
  let safety = Testbed.safety t.tb in
  List.iter
    (fun p -> ignore (Safety.release safety ~client:s.ten_id ~prefix:p))
    prefixes;
  Controller.stop (Testbed.controller t.tb) s.ten_experiment;
  t.running <- List.filter (fun s' -> s' != s) t.running;
  t.finished <- (s.ten_id, disposition) :: t.finished;
  set_occupancy t;
  logf t "t=%.1f %s %s: %s (%d blocks back to pool, %d queued ops dropped)"
    at disposition s.ten_id reason (List.length prefixes) dropped

let evict t ~tenant ~reason =
  match find_tenant t tenant with
  | None -> false
  | Some s ->
    Metrics.Counter.inc m_evicted;
    teardown t s ~disposition:"evict" ~reason;
    true

let complete t ~tenant =
  match find_tenant t tenant with
  | None -> false
  | Some s ->
    Metrics.Counter.inc m_completed;
    teardown t s ~disposition:"complete" ~reason:"experiment finished";
    true

let schedule_expiry t s =
  let gen = s.ten_lease_gen in
  let delay = s.ten_lease_until -. now t in
  Engine.schedule t.eng ~delay:(Float.max 0.0 delay) (fun () ->
      match find_tenant t s.ten_id with
      | Some s' when s' == s && s.ten_lease_gen = gen ->
        ignore (evict t ~tenant:s.ten_id ~reason:"lease expired")
      | Some _ | None -> ())

let renew t ~tenant ~lease_s =
  match find_tenant t tenant with
  | None -> Error (Printf.sprintf "tenant %s is not running" tenant)
  | Some _ when not (lease_s > 0.0) ->
    Error (Printf.sprintf "lease %g s is not positive" lease_s)
  | Some s ->
    s.ten_lease_until <- now t +. lease_s;
    s.ten_lease_gen <- s.ten_lease_gen + 1;
    schedule_expiry t s;
    logf t "t=%.1f renew %s: lease until t=%.1f" (now t) tenant
      s.ten_lease_until;
    Ok s.ten_lease_until

let admit_inner t p =
  let lease_s = Option.value p.p_lease_s ~default:default_lease_s in
  let sites = if p.p_sites = [] then all_site_names t.tb else p.p_sites in
  let unknown =
    List.filter (fun s -> Testbed.site t.tb s = None) sites
  in
  if unknown <> [] then
    Rejected
      [ error "SCHED-SITE" "unknown site(s): %s" (String.concat ", " unknown) ]
  else if is_running t p.p_tenant then
    Rejected [ error "SCHED-DUP" "tenant %s is already running" p.p_tenant ]
  else if not (lease_s > 0.0) then
    Rejected [ error "SCHED-LEASE" "lease %g s is not positive" lease_s ]
  else
    match
      Testbed.new_experiment t.tb ~id:p.p_tenant ~owner:p.p_owner
        ~description:p.p_description ~n_prefixes:p.p_n_prefixes
        ~may_poison:p.p_may_poison ()
    with
    | Error msg -> Rejected [ error "SCHED-PROPOSE" "%s" msg ]
    | Ok exp ->
      let issues =
        conflicts t ~tenant:p.p_tenant ~exp ~poison:p.p_poison_targets
      in
      if issues <> [] then begin
        Metrics.Counter.add m_conflicts (List.length issues);
        (* Give the allocation back: a rejected proposal must leave
           no trace in the pool. *)
        Controller.stop (Testbed.controller t.tb) exp;
        Rejected issues
      end
      else begin
        let cl = Client.create ~id:p.p_tenant ~experiment:exp () in
        Testbed.connect_client t.tb cl ~sites;
        let s =
          { ten_id = p.p_tenant;
            ten_experiment = exp;
            ten_client = cl;
            ten_sites = sites;
            ten_poison = p.p_poison_targets;
            ten_lease_until = now t +. lease_s;
            ten_lease_gen = 0;
            ten_granted = 0
          }
        in
        t.running <- t.running @ [ s ];
        set_occupancy t;
        schedule_expiry t s;
        Admitted { lease_until = s.ten_lease_until }
      end

let admit t p =
  let at = now t in
  let run () =
    let verdict = admit_inner t p in
    (match verdict with
    | Admitted _ -> Metrics.Counter.inc m_admitted
    | Rejected _ -> Metrics.Counter.inc m_rejected);
    logf t "t=%.1f admit %s [%d pfx%s%s]: %s" at p.p_tenant p.p_n_prefixes
      (if p.p_may_poison then ", may-poison" else "")
      (match p.p_poison_targets with
      | [] -> ""
      | l ->
        Printf.sprintf ", poisons %s"
          (String.concat "+" (List.map Asn.to_string l)))
      (verdict_to_string verdict);
    verdict
  in
  if not (Span.enabled ()) then run ()
  else begin
    let sp =
      Span.start ~time:at "core.sched.admit"
        ~attrs:[ ("tenant", p.p_tenant) ]
    in
    let verdict = Span.with_current (Some (Span.context sp)) run in
    Span.finish sp ~time:(now t)
      ~attrs:[ ("verdict", verdict_to_string verdict) ];
    verdict
  end

(* ------------------------------------------------------------------ *)
(* Update requests *)

let request t ~tenant ?sites kind prefix =
  match find_tenant t tenant with
  | None -> Error (Printf.sprintf "tenant %s is not running" tenant)
  | Some s ->
    if not (Experiment.owns_prefix s.ten_experiment prefix) then
      Error
        (Printf.sprintf "prefix %s is outside tenant %s's lease"
           (Prefix.to_string prefix) tenant)
    else begin
      let sites = Option.value sites ~default:s.ten_sites in
      Batcher.enqueue t.batcher ~tenant
        { op_prefix = prefix;
          op_kind = kind;
          op_sites = sites;
          op_enqueued = now t
        };
      Metrics.Counter.inc m_ops_enqueued;
      ensure_round_scheduled t;
      Ok ()
    end

let request_announce t ~tenant ?sites ?(path_suffix = []) prefix =
  request t ~tenant ?sites (Op_announce { path_suffix }) prefix

let request_withdraw t ~tenant ?sites prefix =
  request t ~tenant ?sites Op_withdraw prefix

let pending t = Batcher.pending t.batcher

let pump t =
  let before = t.applied in
  while Batcher.pending t.batcher > 0 do
    run_round t
  done;
  t.applied - before

let rounds_run t = t.rounds
let ops_applied t = t.applied

(* ------------------------------------------------------------------ *)
(* Oracles, logs, reports *)

let isolation_violations t =
  let safety = Testbed.safety t.tb in
  let overlap_pairs = ref 0 in
  let rec pairs = function
    | [] -> ()
    | s :: rest ->
      List.iter
        (fun s' ->
          if
            List.exists
              (fun p ->
                List.exists
                  (fun q -> Prefix.overlaps p q)
                  s'.ten_experiment.Experiment.prefixes)
              s.ten_experiment.Experiment.prefixes
          then incr overlap_pairs)
        rest;
      pairs rest
  in
  pairs t.running;
  let foreign_claims =
    List.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc p ->
            match Safety.announced_by safety p with
            | Some c when c <> s.ten_id -> acc + 1
            | Some _ | None -> acc)
          acc s.ten_experiment.Experiment.prefixes)
      0 t.running
  in
  !overlap_pairs + foreign_claims

let log t = List.rev t.log_rev

let to_json t =
  let tenant_json s =
    Json.Obj
      [ ("tenant", Json.String s.ten_id);
        ( "prefixes",
          Json.List
            (List.map
               (fun p -> Json.String (Prefix.to_string p))
               s.ten_experiment.Experiment.prefixes) );
        ("lease_until", Json.Float s.ten_lease_until);
        ("slots_granted", Json.Int s.ten_granted);
        ("pending", Json.Int (Batcher.pending_for t.batcher s.ten_id));
        ( "sites",
          Json.List (List.map (fun x -> Json.String x) s.ten_sites) )
      ]
  in
  Json.Obj
    [ ("schema", Json.String "peering-sched/2");
      ("running", Json.List (List.map tenant_json t.running));
      ( "finished",
        Json.List
          (List.rev_map
             (fun (id, disposition) ->
               Json.Obj
                 [ ("tenant", Json.String id);
                   ("disposition", Json.String disposition)
                 ])
             t.finished) );
      ("rounds", Json.Int t.rounds);
      ("ops_applied", Json.Int t.applied);
      ("pending", Json.Int (Batcher.pending t.batcher));
      ("lease_occupancy", Json.Int (occupancy t));
      ("isolation_violations", Json.Int (isolation_violations t));
      ("log", Json.List (List.map (fun l -> Json.String l) (log t)))
    ]
