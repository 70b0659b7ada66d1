type goal =
  | Interdomain
  | Rich_connectivity
  | Traffic
  | Real_services
  | Intradomain
  | Open_simultaneous

let goals =
  [ Interdomain; Rich_connectivity; Traffic; Real_services; Intradomain;
    Open_simultaneous ]

let goal_to_string = function
  | Interdomain -> "Interdomain"
  | Rich_connectivity -> "Rich conn."
  | Traffic -> "Traffic"
  | Real_services -> "Real services"
  | Intradomain -> "Intradomain"
  | Open_simultaneous -> "Open/Simult. experiments"

type testbed =
  | Planetlab
  | Vini
  | Emulab
  | Mininet
  | Route_collectors
  | Beacons
  | Transit_portal
  | Peering

let testbeds =
  [ Planetlab; Vini; Emulab; Mininet; Route_collectors; Beacons;
    Transit_portal; Peering ]

let testbed_abbrev = function
  | Planetlab -> "PL"
  | Vini -> "VN"
  | Emulab -> "EM"
  | Mininet -> "MN"
  | Route_collectors -> "RC"
  | Beacons -> "BC"
  | Transit_portal -> "TP"
  | Peering -> "PR"

type support = Full | Limited | None_

let support_symbol = function Full -> "yes" | Limited -> "~" | None_ -> "no"

(* Table 1, transcribed cell by cell. *)
let support testbed goal =
  match (goal, testbed) with
  | Interdomain, Beacons -> Limited
  | Interdomain, (Transit_portal | Peering) -> Full
  | Interdomain, (Planetlab | Vini | Emulab | Mininet | Route_collectors) ->
    None_
  | Rich_connectivity, (Planetlab | Route_collectors | Peering) -> Full
  | Rich_connectivity, (Vini | Emulab | Mininet | Beacons | Transit_portal) ->
    None_
  | Traffic, (Planetlab | Vini | Emulab | Mininet | Peering) -> Full
  | Traffic, Transit_portal -> Limited
  | Traffic, (Route_collectors | Beacons) -> None_
  | Real_services, (Planetlab | Vini | Transit_portal | Peering) -> Full
  | Real_services, (Emulab | Mininet | Route_collectors | Beacons) -> None_
  | Intradomain, (Vini | Emulab | Mininet | Peering) -> Full
  | Intradomain, (Planetlab | Route_collectors | Beacons | Transit_portal) ->
    None_
  | Open_simultaneous, (Planetlab | Vini | Emulab | Mininet | Route_collectors | Peering)
    -> Full
  | Open_simultaneous, (Beacons | Transit_portal) -> None_

let peering_meets_all () =
  List.for_all (fun g -> support Peering g = Full) goals

let combinations_covering_all () =
  let others = List.filter (fun t -> t <> Peering) testbeds in
  let covers a b =
    List.for_all
      (fun g -> support a g = Full || support b g = Full)
      goals
  in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b -> if a < b && covers a b then Some (a, b) else None)
        others)
    others

let render () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%-26s" "");
  List.iter
    (fun t -> Buffer.add_string buf (Printf.sprintf "%-5s" (testbed_abbrev t)))
    testbeds;
  Buffer.add_char buf '\n';
  List.iter
    (fun g ->
      Buffer.add_string buf (Printf.sprintf "%-26s" (goal_to_string g));
      List.iter
        (fun t ->
          Buffer.add_string buf
            (Printf.sprintf "%-5s" (support_symbol (support t g))))
        testbeds;
      Buffer.add_char buf '\n')
    goals;
  Buffer.contents buf
