open Peering_net
open Peering_dataplane
module Engine = Peering_sim.Engine

type action = Forward_to of Asn.t

type rule = {
  description : string;
  matches : Packet_program.match_spec;
  action : action;
}

type participant = {
  asn : Asn.t;
  node : Forwarder.node_id;
  mutable announced : Prefix.t list;
  mutable rules : rule list;
  mutable delivered : int;
}

type t = {
  engine : Engine.t;
  fwd : Forwarder.t;
  node : Forwarder.node_id;
  mutable participants : participant list;
  mutable rejected : (Asn.t * string) list;
}

let create engine fwd ~name () =
  let node = Printf.sprintf "sdx:%s" name in
  Forwarder.add_node fwd node;
  { engine; fwd; node; participants = []; rejected = [] }

let fabric_node t = t.node

let find t asn = List.find_opt (fun p -> Asn.equal p.asn asn) t.participants

let find_exn t asn =
  match find t asn with
  | Some p -> p
  | None -> invalid_arg "Sdx: unknown participant"

let attach_participant t ~asn ~node =
  if find t asn <> None then invalid_arg "Sdx: duplicate participant";
  t.participants <-
    t.participants
    @ [ { asn; node; announced = []; rules = []; delivered = 0 } ]

let announce t ~from prefix =
  let p = find_exn t from in
  if not (List.exists (Prefix.equal prefix) p.announced) then
    p.announced <- p.announced @ [ prefix ]

let set_policy t ~asn rules = (find_exn t asn).rules <- rules

(* A Forward_to override is sound only if the target announced a route
   covering every destination the rule can match; with a dst_in match
   that means a covering announcement, without one it would hijack the
   whole table, so we require dst_in. *)
let reachability_ok target_participant (rule : rule) =
  match rule.matches.Packet_program.dst_in with
  | None -> false
  | Some dst ->
    List.exists
      (fun announced -> Prefix.subsumes announced dst
                        || Prefix.subsumes dst announced)
      target_participant.announced

let compile t =
  t.rejected <- [];
  (* BGP layer: longest-prefix forwarding toward the first announcer. *)
  List.iter
    (fun (p : participant) ->
      List.iter
        (fun prefix -> Forwarder.set_route t.fwd t.node prefix (Fib.Via p.node))
        p.announced)
    t.participants;
  (* Delivery accounting at each participant edge. *)
  List.iter
    (fun (p : participant) ->
      List.iter
        (fun prefix -> Forwarder.set_route t.fwd p.node prefix Fib.Local)
        p.announced;
      Forwarder.on_deliver t.fwd p.node (fun _ -> p.delivered <- p.delivered + 1))
    t.participants;
  (* Policy layer: compose all participants' rules into one program.
     Order: participant attach order, then rule order. *)
  let compiled = ref [] in
  let failure = ref None in
  List.iter
    (fun (p : participant) ->
      List.iter
        (fun rule ->
          match rule.action with
          | Forward_to target -> (
            match find t target with
            | None ->
              failure :=
                Some
                  (Printf.sprintf "rule %S forwards to unattached %s"
                     rule.description (Asn.to_string target))
            | Some tp ->
              if reachability_ok tp rule then
                compiled :=
                  !compiled
                  @ [ { Packet_program.name = rule.description;
                        spec = rule.matches;
                        action = Packet_program.Divert tp.node
                      } ]
              else
                t.rejected <-
                  t.rejected
                  @ [ ( p.asn,
                        Printf.sprintf
                          "%s: target %s has no covering announcement"
                          rule.description (Asn.to_string target) ) ]))
        p.rules)
    t.participants;
  match !failure with
  | Some msg -> Error msg
  | None ->
    let program =
      Packet_program.compile t.engine
        (!compiled
        @ [ { Packet_program.name = "bgp-default";
              spec = Packet_program.match_any;
              action = Packet_program.Allow
            } ])
    in
    Packet_program.install program t.fwd t.node;
    Ok ()

let rejected_rules t = t.rejected
let delivered_to t asn = (find_exn t asn).delivered
