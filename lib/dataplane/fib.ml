open Peering_net

type 'a action = Local | Via of 'a | Blackhole | Unreachable

type 'a t = 'a action Prefix_trie.t

let empty = Prefix_trie.empty
let add = Prefix_trie.add
let lookup addr t = Option.map snd (Prefix_trie.longest_match addr t)
let cardinal = Prefix_trie.cardinal
let to_list = Prefix_trie.to_list
