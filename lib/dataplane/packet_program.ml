open Peering_net
module Engine = Peering_sim.Engine

type match_spec = { dst_in : Prefix.t option; dport : int option }

let match_any = { dst_in = None; dport = None }

let dport_of (pkt : Packet.t) =
  match pkt.Packet.proto with
  | Packet.Udp { dport; _ } | Packet.Tcp { dport; _ } -> Some dport
  | Packet.Icmp _ -> None

let matches spec (pkt : Packet.t) =
  (match spec.dst_in with
  | Some p -> Prefix.mem pkt.Packet.dst p
  | None -> true)
  && match spec.dport with
     | Some port -> dport_of pkt = Some port
     | None -> true

type action =
  | Allow
  | Drop
  | Rewrite_dst of Ipv4.t
  | Divert of Forwarder.node_id

type rule = { name : string; spec : match_spec; action : action }

type compiled_rule = { rule : rule; mutable hit_count : int }

type t = {
  engine : Engine.t;
  rules : compiled_rule list;
  mutable n_dropped : int;
  mutable n_diverted : int;
  mutable n_rewritten : int;
}

let compile engine rules =
  let compiled = List.map (fun rule -> { rule; hit_count = 0 }) rules in
  { engine; rules = compiled; n_dropped = 0; n_diverted = 0; n_rewritten = 0 }

(* The ingress-filter contract is a boolean (keep / drop); rewrites and
   diversions are realised by dropping the original and re-injecting a
   modified copy. A diverted/rewritten packet is tagged by bumping
   nothing — re-injection goes through [Forwarder.inject], which does
   not re-run ingress at the *entry* node, avoiding self-loops. *)
let install t fwd node =
  Forwarder.set_ingress_filter fwd node (fun pkt ->
      let rec eval = function
        | [] -> true
        | c :: rest ->
          if not (matches c.rule.spec pkt) then eval rest
          else begin
            c.hit_count <- c.hit_count + 1;
            match c.rule.action with
            | Allow -> true
            | Drop ->
              t.n_dropped <- t.n_dropped + 1;
              false
            | Rewrite_dst dst ->
              t.n_rewritten <- t.n_rewritten + 1;
              let pkt' = { pkt with Packet.dst } in
              Engine.schedule t.engine ~delay:0.0 (fun () ->
                  Forwarder.inject fwd ~at:node pkt');
              false
            | Divert target ->
              t.n_diverted <- t.n_diverted + 1;
              Engine.schedule t.engine ~delay:0.0 (fun () ->
                  Forwarder.inject fwd ~at:target pkt);
              false
          end
      in
      eval t.rules)

let hits t name =
  List.fold_left
    (fun acc c -> if c.rule.name = name then acc + c.hit_count else acc)
    0 t.rules

let dropped t = t.n_dropped
let rewritten t = t.n_rewritten
