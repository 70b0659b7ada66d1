let () = assert (Knobs.unused 1 = 2)
let () = assert (Knobs.paint Knobs.Green = "green")
