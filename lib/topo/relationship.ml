type t = Customer | Provider | Peer

let invert = function
  | Customer -> Provider
  | Provider -> Customer
  | Peer -> Peer

let to_string = function
  | Customer -> "customer"
  | Provider -> "provider"
  | Peer -> "peer"

let equal a b = a = b

let import_preference = function Customer -> 2 | Peer -> 1 | Provider -> 0

let exports_to ~learned_from to_rel =
  match learned_from with
  | None | Some Customer -> true
  | Some Peer | Some Provider -> (
    match to_rel with Customer -> true | Peer | Provider -> false)
