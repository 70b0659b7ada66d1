(** The testbed-capability model behind Table 1.

    Encodes which of the §2 goals each research platform meets, as the
    paper assesses them, and checks the paper's two claims: PEERING
    meets all goals, and no two other systems combined do. *)

type goal =
  | Interdomain  (** control of interdomain topology and routing *)
  | Rich_connectivity
  | Traffic  (** control of traffic *)
  | Real_services
  | Intradomain  (** control of intradomain topology and routing *)
  | Open_simultaneous  (** openness / simultaneous experiments *)

type testbed =
  | Planetlab
  | Vini
  | Emulab
  | Mininet
  | Route_collectors
  | Beacons
  | Transit_portal
  | Peering

val testbeds : testbed list
(** Table column order (PL VN EM MN RC BC TP PR). *)

val testbed_abbrev : testbed -> string

type support = Full | Limited | None_

val support : testbed -> goal -> support
(** The Table 1 cell. *)

val peering_meets_all : unit -> bool

val combinations_covering_all : unit -> (testbed * testbed) list
(** Pairs of non-PEERING testbeds that would jointly provide full
    support for every goal — the paper claims this list is empty. *)

val render : unit -> string
(** The table as text, paper layout. *)
