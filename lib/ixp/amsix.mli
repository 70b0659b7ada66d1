(** A calibrated AMS-IX instance.

    Builds a {!Fabric.t} whose member population matches the §4.1
    census: 669 member ASes, 554 of them on the route servers; of the
    115 others, 48 open / 12 closed / 40 case-by-case / 15 unlisted
    (the paper's footnote also counts 40 "selective"-ish
    case-by-case members — we map its "consider on a case-by-case
    basis" to [Case_by_case]). Members are drawn from a generated
    Internet with the biases that make the rest of §4.1 come out:
    content networks and large-cone transit ASes join IXPs at much
    higher rates than stubs. *)

open Peering_net

type calibration = {
  n_members : int;  (** 669 *)
  n_route_server : int;  (** 554 *)
  n_open : int;  (** 48 *)
  n_closed : int;  (** 12 *)
  n_case_by_case : int;  (** 40 *)
  n_unlisted : int;  (** 15 *)
}

val build :
  ?calibration:calibration ->
  rng:Peering_sim.Rng.t ->
  Peering_topo.Gen.world ->
  Fabric.t
(** Select members from the world and populate the fabric. The
    selection prefers (in order): content networks, the top of the
    customer-cone ranking, large transit, small transit, stubs.
    Raises [Invalid_argument] if the world has fewer ASes than
    [n_members]. *)

val member_countries : Fabric.t -> Peering_topo.Gen.world -> Country.Set.t
(** Distinct countries of all members. *)
