let () = assert (Knobs.unused 1 = 2)
