let config = { Knobs.default with Knobs.label = "app" }

let () =
  let a = Knobs.used (Knobs.tune ~depth:3 1) in
  let b = Knobs.tune ~depth:3 (Knobs.pick ~depth:2 a) in
  let c = Knobs.pick (Knobs.scale ~factor:2 b) in
  let d = Knobs.scale ~factor:2 (Knobs.shift ~by:1 c + Knobs.shift ~by:2 c) in
  print_endline (Knobs.greet ~name:config.Knobs.label);
  print_int d
