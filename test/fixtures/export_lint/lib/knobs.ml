module Metrics = Peering_obs.Metrics

let m_idle = Metrics.counter ~help:"nothing increments this" "knobs.idle"
let m_calls = Metrics.counter ~help:"calls of used" "knobs.calls"

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
