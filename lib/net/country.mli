(** Country codes, used to reproduce the paper's "peers based in 59
    countries" statistic (§4.1). *)

type t = private string
(** An ISO 3166-1 alpha-2 code, uppercase. *)

val nl : t
(** The Netherlands — AMS-IX's home, the modal peer country. *)

val pool : t array
(** A fixed pool of 96 distinct country codes used by the synthetic
    IXP-member generator. Index 0 is [nl]. *)

module Set : Set.S with type elt = t
