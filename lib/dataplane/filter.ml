open Peering_net
module Engine = Peering_sim.Engine

let anti_spoof ~allowed (pkt : Packet.t) =
  List.exists (fun p -> Prefix.mem pkt.Packet.src p) allowed

let experiment_traffic_only ~experiment (pkt : Packet.t) =
  List.exists
    (fun p -> Prefix.mem pkt.Packet.src p || Prefix.mem pkt.Packet.dst p)
    experiment

type rate_limiter = {
  engine : Engine.t;
  rate : float;
  burst : float;
  mutable tokens : float;
  mutable last : float;
}

let rate_limiter engine ~rate_bytes_per_s ~burst_bytes =
  { engine;
    rate = rate_bytes_per_s;
    burst = burst_bytes;
    tokens = burst_bytes;
    last = Engine.now engine
  }

let rate_allow rl (pkt : Packet.t) =
  let now = Engine.now rl.engine in
  let dt = now -. rl.last in
  rl.last <- now;
  rl.tokens <- Float.min rl.burst (rl.tokens +. (dt *. rl.rate));
  let need = float_of_int pkt.Packet.size in
  if rl.tokens >= need then begin
    rl.tokens <- rl.tokens -. need;
    true
  end
  else false
