type link_profile = {
  loss : float;
  duplicate : float;
  corrupt : float;
  reorder : float;
  reorder_max_delay : float;
}

let lossy ?(loss = 0.0) ?(duplicate = 0.0) ?(corrupt = 0.0) ?(reorder = 0.0)
    ?(reorder_max_delay = 0.2) () =
  let check name p =
    if p < 0.0 || p > 1.0 then
      invalid_arg (Printf.sprintf "Plan.lossy: %s=%g outside [0,1]" name p)
  in
  check "loss" loss;
  check "duplicate" duplicate;
  check "corrupt" corrupt;
  check "reorder" reorder;
  if reorder_max_delay < 0.0 then
    invalid_arg "Plan.lossy: negative reorder_max_delay";
  { loss; duplicate; corrupt; reorder; reorder_max_delay }

type fault =
  | Impair of { link : string; profile : link_profile; duration : float }
  | Partition of { link : string; duration : float }
  | Session_reset of { link : string }
  | Mux_crash of { mux : string; downtime : float }
  | Tunnel_blackhole of { tunnel : string; duration : float }
  | Fate_group of { group : string; faults : fault list }

type step = { at : float; fault : fault }

type t = step list

let of_steps steps =
  List.iter
    (fun s -> if s.at < 0.0 then invalid_arg "Plan.of_steps: negative time")
    steps;
  List.stable_sort (fun a b -> Float.compare a.at b.at) steps

let fault_class = function
  | Impair _ -> "impair"
  | Partition _ -> "partition"
  | Session_reset _ -> "session_reset"
  | Mux_crash _ -> "mux_crash"
  | Tunnel_blackhole _ -> "tunnel_blackhole"
  | Fate_group _ -> "fate_group"

let target = function
  | Impair { link; _ } | Partition { link; _ } | Session_reset { link } -> link
  | Mux_crash { mux; _ } -> mux
  | Tunnel_blackhole { tunnel; _ } -> tunnel
  | Fate_group { group; _ } -> group

let rec describe = function
  | Impair { link; profile = p; duration } ->
    Printf.sprintf
      "impair %s for %.1fs (loss %.0f%%, dup %.0f%%, corrupt %.0f%%, reorder \
       %.0f%%)"
      link duration (100.0 *. p.loss) (100.0 *. p.duplicate)
      (100.0 *. p.corrupt) (100.0 *. p.reorder)
  | Partition { link; duration } ->
    Printf.sprintf "partition %s for %.1fs" link duration
  | Session_reset { link } -> Printf.sprintf "reset session on %s" link
  | Mux_crash { mux; downtime } ->
    Printf.sprintf "crash mux %s for %.1fs" mux downtime
  | Tunnel_blackhole { tunnel; duration } ->
    Printf.sprintf "blackhole tunnel %s for %.1fs" tunnel duration
  | Fate_group { group; faults } ->
    Printf.sprintf "fate group %s {%s}" group
      (String.concat "; " (List.map describe faults))

(* ------------------------------------------------------------------ *)
(* Static validation *)

type targets = {
  links : string list;
  muxes : string list;
  tunnels : string list;
}

type severity = Error | Warning

type issue = {
  severity : severity;
  at : float;
  message : string;
}

let duration_of = function
  | Impair { duration; _ }
  | Partition { duration; _ }
  | Tunnel_blackhole { duration; _ } ->
    Some duration
  | Mux_crash { downtime; _ } -> Some downtime
  | Session_reset _ | Fate_group _ -> None

let validate ?targets plan =
  let issues = ref [] in
  let add severity at fmt =
    Printf.ksprintf
      (fun message -> issues := { severity; at; message } :: !issues)
      fmt
  in
  let check_target ~at kind registry name =
    match (registry, targets) with
    | _, None -> ()
    | reg, Some _ ->
      if not (List.mem name reg) then
        add Error at "unknown %s target %s" kind name
  in
  let links = match targets with Some t -> t.links | None -> [] in
  let muxes = match targets with Some t -> t.muxes | None -> [] in
  let tunnels = match targets with Some t -> t.tunnels | None -> [] in
  (* Per-fault checks; fate groups recurse with [depth] so nesting and
     emptiness (both refused by the injector) surface statically. *)
  let rec check ~at ~depth fault =
    (match fault with
    | Impair { link; profile = p; _ } ->
      check_target ~at "link" links link;
      List.iter
        (fun (name, rate) ->
          if rate < 0.0 || rate > 1.0 then
            add Error at "impair %s: %s=%g outside [0,1]" link name rate)
        [ ("loss", p.loss); ("duplicate", p.duplicate);
          ("corrupt", p.corrupt); ("reorder", p.reorder) ];
      if p.reorder_max_delay < 0.0 then
        add Error at "impair %s: negative reorder_max_delay" link
    | Partition { link; _ } | Session_reset { link } ->
      check_target ~at "link" links link
    | Mux_crash { mux; _ } -> check_target ~at "mux" muxes mux
    | Tunnel_blackhole { tunnel; _ } ->
      check_target ~at "tunnel" tunnels tunnel
    | Fate_group { group; faults } ->
      if depth > 0 then
        add Error at "fate group %s is nested inside another group" group;
      if faults = [] then add Error at "fate group %s is empty" group;
      List.iter (check ~at ~depth:(depth + 1)) faults);
    match duration_of fault with
    | Some d when d <= 0.0 ->
      add Error at "%s: non-positive duration %g" (describe fault) d
    | Some _ | None -> ()
  in
  List.iter (fun (s : step) -> check ~at:s.at ~depth:0 s.fault) plan;
  (* Overlapping same-class windows on one target are a plan smell: the
     injector's generation guard lets the later window supersede the
     earlier one, silently reshaping both. *)
  let windows = ref [] in
  let rec collect ~at fault =
    match fault with
    | Fate_group { faults; _ } -> List.iter (collect ~at) faults
    | f ->
      (match duration_of f with
      | Some d when d > 0.0 ->
        windows := (fault_class f, target f, at, at +. d) :: !windows
      | Some _ | None -> ())
  in
  List.iter (fun (s : step) -> collect ~at:s.at s.fault) plan;
  let rec overlap_pairs = function
    | [] -> ()
    | (c1, t1, a1, b1) :: rest ->
      List.iter
        (fun (c2, t2, a2, b2) ->
          if c1 = c2 && t1 = t2 && a2 < b1 && a1 < b2 then
            add Warning (Float.max a1 a2)
              "overlapping %s windows on %s ([%.1f,%.1f] and [%.1f,%.1f])" c1
              t1 a1 b1 a2 b2)
        rest;
      overlap_pairs rest
  in
  overlap_pairs (List.rev !windows);
  List.stable_sort
    (fun a b ->
      match Float.compare a.at b.at with
      | 0 ->
        compare
          (match a.severity with Error -> 0 | Warning -> 1)
          (match b.severity with Error -> 0 | Warning -> 1)
      | c -> c)
    (List.rev !issues)

let errors issues = List.filter (fun i -> i.severity = Error) issues
