open Peering_net

type proto =
  | Udp of { sport : int; dport : int }
  | Tcp of { sport : int; dport : int }
  | Icmp of icmp

and icmp =
  | Ttl_exceeded of { original_dst : Ipv4.t; original_id : int }
  | Dest_unreachable of { original_dst : Ipv4.t; original_id : int }

type t = {
  id : int;
  src : Ipv4.t;
  dst : Ipv4.t;
  ttl : int;
  proto : proto;
  size : int;
}

let counter = ref 0

let make ?(ttl = 64) ?(size = 64)
    ?(proto = Udp { sport = 33434; dport = 33434 }) ~src ~dst () =
  incr counter;
  { id = !counter; src; dst; ttl; proto; size }

let decrement_ttl t = if t.ttl <= 1 then None else Some { t with ttl = t.ttl - 1 }

let proto_string = function
  | Udp { sport; dport } -> Printf.sprintf "udp %d>%d" sport dport
  | Tcp { sport; dport } -> Printf.sprintf "tcp %d>%d" sport dport
  | Icmp (Ttl_exceeded _) -> "icmp ttl-exceeded"
  | Icmp (Dest_unreachable _) -> "icmp unreachable"

let pp ppf t =
  Format.fprintf ppf "#%d %s -> %s ttl=%d %s" t.id (Ipv4.to_string t.src)
    (Ipv4.to_string t.dst) t.ttl (proto_string t.proto)
