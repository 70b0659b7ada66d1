open Peering_net
open Peering_bgp

let c_hijack = "EXP-HIJACK"
let c_poison = "EXP-POISON"
let c_dampen = "EXP-DAMPEN"

let default_peering_asn = Asn.of_int 47065

let announces (spec : Spec.t) =
  List.filter_map
    (fun (e : Spec.event) ->
      match e.Spec.ev_kind with
      | Spec.Announce path -> Some (e, path)
      | Spec.Withdraw -> None)
    spec.Spec.events

let hijacks (spec : Spec.t) =
  List.filter_map
    (fun ((e : Spec.event), _) ->
      if
        List.exists
          (fun alloc -> Prefix.subsumes alloc e.Spec.ev_prefix)
          spec.Spec.prefixes
      then None
      else
        Some
          (Diagnostic.error ~code:c_hijack ~line:e.Spec.ev_line
             ~hint:
               "announce only subprefixes of the experiment's allocated \
                space"
             (Printf.sprintf
                "announcing %s would be an origin hijack: the prefix is \
                 outside experiment %s's allocation"
                (Prefix.to_string e.Spec.ev_prefix)
                spec.Spec.id)))
    (announces spec)

let poisonings (spec : Spec.t) =
  if spec.Spec.may_poison then []
  else
    List.concat_map
      (fun ((e : Spec.event), path) ->
        List.filter_map
          (fun a ->
            if
              Asn.is_private a
              || Asn.equal a default_peering_asn
              || List.exists (Asn.equal a) spec.Spec.asns
            then None
            else
              Some
                (Diagnostic.error ~code:c_poison ~line:e.Spec.ev_line
                   ~hint:
                     "request poisoning approval ('may-poison') or drop the \
                      public ASN from the path"
                   (Printf.sprintf
                      "path suffix for %s contains public ASN %s but \
                       experiment %s has no poisoning approval"
                      (Prefix.to_string e.Spec.ev_prefix)
                      (Asn.to_string a) spec.Spec.id)))
          path)
      (announces spec)

let dampening (spec : Spec.t) =
  let d = Dampening.create () in
  let peer = spec.Spec.id in
  let ordered =
    List.stable_sort
      (fun (a : Spec.event) b -> Float.compare a.Spec.ev_time b.Spec.ev_time)
      spec.Spec.events
  in
  List.filter_map
    (fun (e : Spec.event) ->
      let now = e.Spec.ev_time in
      match e.Spec.ev_kind with
      | Spec.Withdraw ->
        Dampening.flap d ~now ~peer e.Spec.ev_prefix;
        None
      | Spec.Announce _ ->
        if Dampening.is_suppressed d ~now ~peer e.Spec.ev_prefix then
          let until =
            Option.value
              (Dampening.reuse_time d ~now ~peer e.Spec.ev_prefix)
              ~default:(now +. Dampening.max_suppress)
          in
          Some
            (Diagnostic.error ~code:c_dampen ~line:e.Spec.ev_line
               ~hint:
                 (Printf.sprintf
                    "space the flaps out; the route is reusable from \
                     t=%.0f"
                    until)
               (Printf.sprintf
                  "announcement of %s at t=%.0f would be refused: the \
                   schedule trips RFC 2439 dampening (suppressed until \
                   t=%.0f)"
                  (Prefix.to_string e.Spec.ev_prefix)
                  now until))
        else None)
    ordered
