open Peering_net
open Peering_bgp
module Metrics = Peering_obs.Metrics
module Sink = Peering_obs.Sink
module Span = Peering_obs.Span

let m_accepted = Metrics.counter "core.safety.accepted"

let m_rejected = Metrics.counter "core.safety.rejected"

let m_withdraw_flaps = Metrics.counter "core.safety.withdraw_flaps"

type reason =
  | Experiment_not_active
  | Prefix_not_owned
  | Prefix_not_allocated
  | Poisoning_not_permitted of Asn.t
  | Dampened of float
  | Announced_by_other_experiment
  | Mux_down

let reason_to_string = function
  | Mux_down -> "mux is down (crashed, awaiting restart)"
  | Experiment_not_active -> "experiment is not active"
  | Prefix_not_owned -> "prefix is not PEERING address space (hijack)"
  | Prefix_not_allocated -> "prefix is not allocated to this experiment"
  | Poisoning_not_permitted a ->
    Printf.sprintf "public ASN %s in path requires poisoning approval"
      (Asn.to_string a)
  | Dampened t -> Printf.sprintf "dampened until t=%.1f" t
  | Announced_by_other_experiment ->
    "prefix is currently announced by another experiment"

type t = {
  peering_asn : Asn.t;
  owns : Prefix.t -> bool;
  dampening : Dampening.t;
  mutable registry : string Prefix.Map.t;  (* prefix -> client id *)
}

let create ?dampening ~peering_asn ~owns () =
  { peering_asn;
    owns;
    dampening = Dampening.create ?params:dampening ();
    registry = Prefix.Map.empty
  }

let check_path t experiment suffix =
  let rec go = function
    | [] -> Ok ()
    | a :: rest ->
      if Asn.is_private a || Asn.equal a t.peering_asn
         || Experiment.owns_asn experiment a
      then go rest
      else if experiment.Experiment.may_poison then go rest
      else Error (Poisoning_not_permitted a)
  in
  go suffix

let check_announce_inner t ~now ~client ~experiment ~prefix ~path_suffix =
  if not (Experiment.is_active experiment) then Error Experiment_not_active
  else if not (t.owns prefix) then Error Prefix_not_owned
  else if not (Experiment.owns_prefix experiment prefix) then
    Error Prefix_not_allocated
  else
    match Prefix.Map.find_opt prefix t.registry with
    | Some other when other <> client -> Error Announced_by_other_experiment
    | Some _ | None -> (
      match check_path t experiment path_suffix with
      | Error e -> Error e
      | Ok () ->
        (* Withdrawals accumulate the penalty (RFC 2439 counts flaps,
           not initial announcements); announcing while suppressed is
           refused. *)
        if Dampening.is_suppressed t.dampening ~now ~peer:client prefix then
          let until =
            Option.value
              (Dampening.reuse_time t.dampening ~now ~peer:client prefix)
              ~default:(now +. 3600.0)
          in
          Error (Dampened until)
        else begin
          t.registry <- Prefix.Map.add prefix client t.registry;
          Ok ()
        end)

let check_announce t ~now ~client ~experiment ~prefix ~path_suffix =
  let run () =
    let result =
      check_announce_inner t ~now ~client ~experiment ~prefix ~path_suffix
    in
    (match result with
    | Ok () -> Metrics.Counter.inc m_accepted
    | Error _ -> Metrics.Counter.inc m_rejected);
    if Sink.active () then begin
      let verdict =
        match result with
        | Ok () -> Peering_obs.Event.Accepted
        | Error r -> Peering_obs.Event.Rejected (reason_to_string r)
      in
      let level =
        match result with
        | Ok () -> Peering_obs.Event.Info
        | Error _ -> Peering_obs.Event.Warn
      in
      Sink.emit ~time:now ~level ~subsystem:"core.safety"
        (Peering_obs.Event.Safety_verdict { client; prefix; verdict })
    end;
    result
  in
  if not (Span.enabled ()) then run ()
  else begin
    let sp =
      Span.start ~time:now "core.safety.check"
        ~attrs:[ ("client", client); ("prefix", Prefix.to_string prefix) ]
    in
    let result = Span.with_current (Some (Span.context sp)) run in
    Span.finish sp ~time:now
      ~attrs:
        [ ( "verdict",
            match result with
            | Ok () -> "accepted"
            | Error r -> reason_to_string r )
        ];
    result
  end

let note_withdraw t ~now ~client ~prefix =
  Metrics.Counter.inc m_withdraw_flaps;
  Dampening.flap t.dampening ~now ~peer:client prefix;
  (match Prefix.Map.find_opt prefix t.registry with
  | Some c when c = client -> t.registry <- Prefix.Map.remove prefix t.registry
  | Some _ | None -> ())

type release_outcome = Released | Not_claimed | Claimed_by_other of string

let release t ~client ~prefix =
  match Prefix.Map.find_opt prefix t.registry with
  | Some c when c = client ->
    t.registry <- Prefix.Map.remove prefix t.registry;
    Released
  | Some other -> Claimed_by_other other
  | None -> Not_claimed

let announced_by t prefix = Prefix.Map.find_opt prefix t.registry

let sanitize_suffix t experiment suffix =
  List.filter
    (fun a ->
      if Asn.is_private a then false
      else
        Asn.equal a t.peering_asn
        || experiment.Experiment.may_poison
        || Experiment.owns_asn experiment a)
    suffix

let suppressed_until t ~now ~client prefix =
  if Dampening.is_suppressed t.dampening ~now ~peer:client prefix then
    Dampening.reuse_time t.dampening ~now ~peer:client prefix
  else None
