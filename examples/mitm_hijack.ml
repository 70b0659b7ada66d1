(* Man-in-the-middle interception study (paper §2, "Control of
   intradomain topology and routing": "a researcher is using PEERING
   to study man-in-the-middle hijacks, in which an attacker uses BGP
   to intercept traffic to inspect before forwarding it to the
   destination").

   We play both sides inside the testbed: a victim experiment
   announces its prefix; an attacker AS in the simulated Internet then
   announces the same prefix (MOAS hijack) while using a poisoned path
   to keep its own route to the victim intact — the classic
   Pilosov-Kapela interception.

     dune exec examples/mitm_hijack.exe *)

open Peering_net
open Peering_core
module Gen = Peering_topo.Gen
module Propagation = Peering_topo.Propagation
module Engine = Peering_sim.Engine
module Sink = Peering_obs.Sink
module Event = Peering_obs.Event

let () =
  print_endline "building testbed...";
  let t = Testbed.build () in
  (* Typed event recorder: assertions below pattern-match on the event
     payloads rather than searching rendered message text. *)
  Sink.start ~clock:(fun () -> Engine.now (Testbed.engine t)) ();
  let experiment =
    match
      Testbed.new_experiment t ~id:"mitm-victim" ~owner:"security-lab"
        ~description:"victim prefix for interception measurement study" ()
    with
    | Ok e -> e
    | Error m -> failwith m
  in
  let client = Client.create ~id:"victim" ~experiment () in
  Testbed.connect_client t client ~sites:[ "amsterdam01"; "gatech01" ];
  let prefix = List.hd experiment.Experiment.prefixes in
  ignore (Client.announce client prefix);
  let w = Testbed.world t in
  let stubs = w.Gen.stubs in
  let clean = Testbed.reach_count t prefix in
  Printf.printf "victim announced %s: %d ASes have routes\n"
    (Prefix.to_string prefix) clean;

  (* The attacker: a mid-size transit AS. To intercept (not blackhole)
     it must keep a working path back to the victim, so it poisons the
     ASes on its own forward path — they reject the hijack and keep
     routing to the real origin, forming the return tunnel. *)
  let attacker = List.nth w.Gen.small_transit 7 in
  let return_path =
    match Testbed.route_from t attacker prefix with
    | Some r -> r.Propagation.path
    | None -> failwith "attacker has no route to victim"
  in
  Printf.printf "attacker %s; its path to the victim: %s\n"
    (Asn.to_string attacker)
    (String.concat " " (List.map Asn.to_string return_path));
  let poisoned =
    (* keep the PEERING-side tail out of the poison list *)
    List.filter (fun a -> Asn.to_int a < 4_000_000) return_path
  in
  Testbed.inject_external t ~origin:attacker ~path_suffix:poisoned prefix;

  (* Measure the interception. *)
  (match Testbed.result_for t prefix with
  | None -> failwith "no propagation result"
  | Some r ->
    let diverted =
      List.filter
        (fun stub ->
          match Propagation.route_at r stub with
          | Some rt ->
            (* routes derived from the attacker's announcement *)
            rt.Propagation.ann_index <> 0
            && not (Asn.equal stub attacker)
          | None -> false)
        stubs
    in
    Printf.printf "hijack live: %d of %d stub ASes now send traffic to the attacker\n"
      (List.length diverted) (List.length stubs);
    (* The return path must still work: the poisoned ASes rejected the
       hijack (loop detection), so they kept their routes to the true
       origin — the attacker hands intercepted traffic to the first of
       them and it flows home. *)
    (match poisoned with
    | first_hop :: _ -> (
      match Propagation.route_at r first_hop with
      | Some rt when rt.Propagation.ann_index = 0 ->
        Printf.printf
          "return path intact: poisoned %s still routes to the true origin\n\
           via %s — the attacker can inspect and forward (interception,\n\
           not blackholing)\n"
          (Asn.to_string first_hop)
          (String.concat " " (List.map Asn.to_string rt.Propagation.path))
      | _ ->
        print_endline "return path broken (blackhole, not interception)")
    | [] -> print_endline "nothing to poison: attacker adjacent to victim"));

  (* The victim fights back from PEERING: announce more-specifics is
     not possible (same /24 granularity), but it can localise the
     hijack by comparing vantage points: collector data shows paths
     diverging. *)
  let col = Testbed.collector t in
  Printf.printf "collector recorded %d control-plane events for analysis\n"
    (Peering_measure.Collector.n_entries col);
  Testbed.retract_external t ~origin:attacker prefix;
  Printf.printf "after takedown: %d ASes route to the victim again\n"
    (Testbed.reach_count t prefix);

  (* The victim's own announcements went through the safety layer and
     were accepted at every connected site; the attacker's hijack was
     injected in the simulated Internet and never produced a verdict. *)
  let victim_accepts, other_verdicts =
    List.fold_left
      (fun (acc, others) (e : Sink.event) ->
        match e.Sink.ev with
        | Event.Safety_verdict
            { client = "victim"; prefix = p; verdict = Event.Accepted }
          when Prefix.equal p prefix -> (acc + 1, others)
        | Event.Safety_verdict _ -> (acc, others + 1)
        | _ -> (acc, others))
      (0, 0) (Sink.events ())
  in
  Printf.printf
    "typed trace: %d acceptances for the victim, %d other safety verdicts\n"
    victim_accepts other_verdicts;
  assert (victim_accepts >= 2) (* one per connected site *);
  assert (other_verdicts = 0);
  Sink.stop ();
  print_endline "done."
