type t = { hi : int64; lo : int64 }

let make hi lo = { hi; lo }
