open Peering_net

type 'a action = Local | Via of 'a | Blackhole

type 'a t = 'a action Prefix_trie.t

let empty = Prefix_trie.empty
let add = Prefix_trie.add
let lookup addr t = Option.map snd (Prefix_trie.longest_match addr t)
