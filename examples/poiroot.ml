(* PoiRoot-style root-cause analysis of interdomain path changes
   (paper §2: "PoiRoot made announcements to expose ASes' routing
   preferences ... also used PEERING to make controlled path changes,
   to use as ground truth for evaluation").

   We announce a prefix, snapshot the paths a set of vantage ASes use
   toward it, induce a controlled change (a transit AS fails), snapshot
   again, and run the localisation logic: the root cause must lie in
   the set of ASes that disappeared from every changed path. PEERING's
   ground truth (we know which AS we failed) grades the inference.

     dune exec examples/poiroot.exe *)

open Peering_net
open Peering_core
module Gen = Peering_topo.Gen
module Engine = Peering_sim.Engine
module Sink = Peering_obs.Sink
module Event = Peering_obs.Event

let paths_from t vantages prefix =
  List.filter_map
    (fun v ->
      match Testbed.path_from t v prefix with
      | Some path -> Some (v, path)
      | None -> None)
    vantages

let () =
  print_endline "building testbed...";
  let t = Testbed.build () in
  (* Typed event recorder: the ground-truth announcement is asserted by
     matching event payloads, not by searching rendered text. *)
  Sink.start ~clock:(fun () -> Engine.now (Testbed.engine t)) ();
  let exp =
    match
      Testbed.new_experiment t ~id:"poiroot" ~owner:"poiroot"
        ~description:"root cause analysis of interdomain path changes" ()
    with
    | Ok e -> e
    | Error m -> failwith m
  in
  let client = Client.create ~id:"poiroot" ~experiment:exp () in
  Testbed.connect_client t client ~sites:[ "amsterdam01"; "gatech01" ];
  let prefix = List.hd exp.Experiment.prefixes in
  ignore (Client.announce client prefix);

  (* Vantage points: a spread of stubs. *)
  let w = Testbed.world t in
  let vantages = List.filteri (fun i _ -> i mod 10 = 0) w.Gen.stubs in
  let before = paths_from t vantages prefix in
  Printf.printf "baseline: %d vantage ASes with paths\n" (List.length before);

  (* Ground truth: fail a transit that carries several vantages. *)
  let carrier_counts = Hashtbl.create 64 in
  List.iter
    (fun (_, path) ->
      List.iter
        (fun hop ->
          if not (Asn.equal hop Testbed.peering_asn) then
            Hashtbl.replace carrier_counts (Asn.to_int hop)
              (1 + Option.value (Hashtbl.find_opt carrier_counts (Asn.to_int hop))
                     ~default:0))
        (List.tl path))
    before;
  let root_cause, _ =
    Hashtbl.fold
      (fun asn n ((_, best) as acc) -> if n > best then (asn, n) else acc)
      carrier_counts (0, 0)
  in
  let root_cause = Asn.of_int root_cause in
  Printf.printf "induced change: failing %s (ground truth)\n"
    (Asn.to_string root_cause);
  Testbed.set_down t root_cause true;
  let after = paths_from t vantages prefix in

  (* Localisation: for every vantage whose path changed, the suspects
     are the ASes that left its path; the root cause survives the
     intersection across vantages. *)
  let changed =
    List.filter_map
      (fun (v, old_path) ->
        match List.assoc_opt v after with
        | Some new_path when new_path <> old_path -> Some (v, old_path, new_path)
        | Some _ -> None
        | None -> Some (v, old_path, []))
      before
  in
  Printf.printf "%d vantages observed a path change\n" (List.length changed);
  let suspects_of (_, old_path, new_path) =
    List.filter (fun a -> not (List.exists (Asn.equal a) new_path)) old_path
  in
  let intersection =
    match changed with
    | [] -> []
    | first :: rest ->
      List.fold_left
        (fun acc case ->
          let s = suspects_of case in
          List.filter (fun a -> List.exists (Asn.equal a) s) acc)
        (suspects_of first) rest
  in
  Printf.printf "suspect set after intersection: {%s}\n"
    (String.concat ", " (List.map Asn.to_string intersection));
  let correct = List.exists (Asn.equal root_cause) intersection in
  Printf.printf "root cause %s %s the suspect set (%d candidate%s)\n"
    (Asn.to_string root_cause)
    (if correct then "isolated in" else "MISSED by")
    (List.length intersection)
    (if List.length intersection = 1 then "" else "s");
  Testbed.set_down t root_cause false;

  (* Ground truth rests on our controlled announcement actually being
     in the control plane: the safety layer must have accepted it at
     both connected sites and rejected nothing. *)
  let accepted =
    List.filter_map
      (fun (e : Sink.event) ->
        match e.Sink.ev with
        | Event.Safety_verdict
            { client = "poiroot"; prefix = p; verdict = Event.Accepted }
          when Prefix.equal p prefix -> Some e.Sink.time
        | Event.Safety_verdict { verdict = Event.Rejected reason; _ } ->
          failwith ("safety layer rejected the controlled announcement: " ^ reason)
        | _ -> None)
      (Sink.events ())
  in
  Printf.printf "typed trace: controlled announcement accepted %d times\n"
    (List.length accepted);
  assert (List.length accepted >= 2);
  Sink.stop ();
  print_endline "done."
