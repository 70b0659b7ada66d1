(** Embedded PoP-level backbone topologies in the style of the
    Internet Topology Zoo.

    The paper's §4.2 emulates Hurricane Electric's 24-PoP global
    backbone from Topology Zoo data. The Zoo's GML files are not
    shippable here, so we embed a hand-transcribed approximation of
    the HE graph (same scale: 24 PoPs, ~30 links, US ring plus
    European and Asian extensions). The Amsterdam PoP — the one §4.2
    connects to AMS-IX — is present by construction. *)

type t = {
  name : string;
  pops : string array;  (** city names, by pop id *)
  links : (int * int) list;  (** undirected, by pop id *)
}

val hurricane_electric : t
(** The 24-PoP HE backbone approximation. *)

val abilene : t
(** The 11-PoP Abilene/Internet2 research backbone — a second,
    smaller topology for tests and examples. *)

val n_pops : t -> int
val n_links : t -> int
