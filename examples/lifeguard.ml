(* LIFEGUARD-style failure avoidance (paper §2, "Control of
   interdomain topology and routing").

   A transit AS on the paths toward our prefix fails silently (a
   "black hole": it still announces routes but drops traffic). We use
   PEERING's control of announcements to route around it with BGP
   poisoning: re-announcing our prefix with the broken AS inserted in
   the path makes that AS reject the route (loop detection), so the
   rest of the Internet finds paths that avoid it.

     dune exec examples/lifeguard.exe *)

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
  (* Record typed events so the safety layer's rulings can be asserted
     by pattern matching instead of scraping rendered trace text. *)
  Sink.start ~clock:(fun () -> Engine.now (Testbed.engine t)) ();
  (* Poisoning requires explicit vetting by the advisory board. *)
  let experiment =
    match
      Testbed.new_experiment t ~id:"lifeguard" ~owner:"lifeguard"
        ~description:"locate and route around persistent blackholes"
        ~may_poison:true ()
    with
    | Ok e -> e
    | Error m -> failwith m
  in
  let client = Client.create ~id:"lifeguard" ~experiment () in
  Testbed.connect_client t client ~sites:[ "gatech01" ];
  let prefix = List.hd experiment.Experiment.prefixes in
  ignore (Client.announce client prefix);
  let baseline = Testbed.reach_count t prefix in
  Printf.printf "announced %s: reachable from %d ASes\n"
    (Prefix.to_string prefix) baseline;

  (* Find the transit AS that carries the most traffic toward us in
     the MIDDLE of inbound paths (not a stub's own access provider —
     single-homed customers of the broken AS are beyond rescue by
     definition). *)
  let w = Testbed.world t in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun stub ->
      match Testbed.route_from t stub prefix with
      | Some r -> (
        match r.Propagation.path with
        | _ :: hop :: _ :: _ ->
          (* second hop, with at least one more AS before the origin *)
          Hashtbl.replace counts (Asn.to_int hop)
            (1 + Option.value (Hashtbl.find_opt counts (Asn.to_int hop)) ~default:0)
        | _ -> ())
      | None -> ())
    w.Gen.stubs;
  let broken, carried =
    Hashtbl.fold
      (fun asn n ((_, best) as acc) -> if n > best then (asn, n) else acc)
      counts (0, 0)
  in
  let broken = Asn.of_int broken in
  Printf.printf "heaviest mid-path transit: %s (second hop for %d stubs)\n"
    (Asn.to_string broken) carried;

  (* The AS develops a silent blackhole: routes stay up, traffic dies.
     (We model the data-plane failure; control plane unchanged, so
     withdrawals won't save anyone — exactly LIFEGUARD's setting.) *)
  Printf.printf "%s now blackholes traffic silently...\n" (Asn.to_string broken);
  let victims =
    List.filter
      (fun stub ->
        match Testbed.route_from t stub prefix with
        | Some r -> List.exists (Asn.equal broken) r.Propagation.path
        | None -> false)
      w.Gen.stubs
  in
  Printf.printf "%d stub ASes send their traffic into the blackhole\n"
    (List.length victims);

  (* LIFEGUARD repair: withdraw and re-announce with the broken AS
     poisoned into the path. Its loop detection rejects the route; the
     Internet reroutes around it. *)
  Client.withdraw client prefix;
  let outcomes = Client.announce client ~path_suffix:[ broken ] prefix in
  List.iter
    (fun (site, r) ->
      Printf.printf "  poisoned re-announce via %s: %s\n" site
        (match r with
        | Ok () -> "accepted (experiment is vetted for poisoning)"
        | Error e -> "rejected: " ^ Safety.reason_to_string e))
    outcomes;
  let after = Testbed.reach_count t prefix in
  (* The poisoned ASN now appears in every path's *suffix* (that is
     the point); only the actually-traversed part — everything before
     PEERING's ASN — matters for rescue. *)
  let rec traversed = function
    | [] -> []
    | hop :: _ when Asn.equal hop Testbed.peering_asn -> []
    | hop :: rest -> hop :: traversed rest
  in
  let rescued =
    List.filter
      (fun stub ->
        match Testbed.path_from t stub prefix with
        | Some path ->
          not (List.exists (Asn.equal broken) (traversed path))
        | None -> false)
      victims
  in
  Printf.printf
    "after poisoning: reachable from %d ASes; %d of %d blackholed stubs\n\
     rerouted onto clean paths\n"
    after (List.length rescued) (List.length victims);
  let stranded = List.length victims - List.length rescued in
  if stranded > 0 then
    Printf.printf
      "(%d stubs are single-homed behind the broken AS — no alternate path\n\
       exists for them, poisoned or not)\n"
      stranded;

  (* The poisoning only worked because the experiment was vetted: every
     safety ruling on our announcements must be an acceptance. *)
  let verdicts =
    List.filter_map
      (fun (e : Sink.event) ->
        match e.Sink.ev with
        | Event.Safety_verdict { client = "lifeguard"; prefix = p; verdict }
          when Prefix.equal p prefix -> Some verdict
        | _ -> None)
      (Sink.events ())
  in
  let rejections =
    List.filter
      (function Event.Rejected _ -> true | Event.Accepted -> false)
      verdicts
  in
  Printf.printf
    "safety layer ruled %d times on %s: %d accepted, %d rejected\n"
    (List.length verdicts) (Prefix.to_string prefix)
    (List.length verdicts - List.length rejections)
    (List.length rejections);
  assert (verdicts <> []);
  assert (rejections = []);
  Sink.stop ();
  print_endline "done."
