(** Patricia trie keyed by IPv4 prefixes, supporting exact lookup and
    longest-prefix match.

    This is the substrate for both BGP RIBs and dataplane FIBs. The
    trie is immutable; updates return new tries sharing structure. *)

type 'a t

val empty : 'a t

val add : Prefix.t -> 'a -> 'a t -> 'a t
(** [add p v t] binds [p] to [v], replacing any previous binding. *)

val update : Prefix.t -> ('a option -> 'a option) -> 'a t -> 'a t
(** [update p f t] adjusts the binding at [p] through [f]; [f None]
    inserting, [f (Some v)] replacing or ([None]) deleting. *)

val longest_match : Ipv4.t -> 'a t -> (Prefix.t * 'a) option
(** [longest_match a t] is the most specific prefix in [t] containing
    address [a], with its value. *)

val matches : Ipv4.t -> 'a t -> (Prefix.t * 'a) list
(** All prefixes containing [a], most specific first. *)

val cardinal : 'a t -> int
