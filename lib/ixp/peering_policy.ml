type t = Open | Selective | Case_by_case | Closed | Unlisted

let to_string = function
  | Open -> "open"
  | Selective -> "selective"
  | Case_by_case -> "case-by-case"
  | Closed -> "closed"
  | Unlisted -> "unlisted"

let equal a b = a = b
let all = [ Open; Selective; Case_by_case; Closed; Unlisted ]

let accept_probability = function
  | Open -> 0.88
  | Selective -> 0.15
  | Case_by_case -> 0.25
  | Closed -> 0.0
  | Unlisted -> 0.1
