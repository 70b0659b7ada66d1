module Metrics = Peering_obs.Metrics

let m_idle = Metrics.counter "knobs.idle"
let m_calls = Metrics.counter "knobs.calls"

let unused x = x + 1

let used x =
  Metrics.Counter.inc m_calls;
  x

let tune ?(depth = 1) x = x * depth
let pick ?(depth = 1) x = x + depth
let scale ~factor x = x * factor
let shift ~by x = x + by
let greet ~name = "hello " ^ name

type config = { retries : int; label : string }

let default = { retries = 3; label = "default" }

type color = Red | Green | Blue

let paint = function Red -> "red" | Green -> "green" | Blue -> "blue"

type tally = { name : string; note : string; mutable hits : int; mutable misses : int }

let hit t = t.hits <- t.hits + 1

type limits = { retries : int }
