open Peering_net
open Peering_topo

let c_partition = "GRAPH-PARTITION"
let c_relcycle = "GRAPH-RELCYCLE"
let c_moas = "GRAPH-MOAS"
let c_overlap = "XEXP-OVERLAP"
let c_asn = "XEXP-ASN"
let c_poison = "XEXP-POISON"

(* ------------------------------------------------------------------ *)
(* Connectivity: a world whose topology splits into several components
   cannot carry any experiment across the split. One diagnostic naming
   the smallest component keeps the report short on badly broken
   inputs. *)

let components g =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  List.filter_map
    (fun root ->
      if Hashtbl.mem seen (Asn.to_int root) then None
      else begin
        let comp = ref [] in
        let stack = ref [ root ] in
        Hashtbl.replace seen (Asn.to_int root) ();
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | v :: rest ->
            stack := rest;
            comp := v :: !comp;
            List.iter
              (fun (u, _) ->
                if not (Hashtbl.mem seen (Asn.to_int u)) then begin
                  Hashtbl.replace seen (Asn.to_int u) ();
                  stack := u :: !stack
                end)
              (As_graph.neighbors g v)
        done;
        Some (List.sort Asn.compare !comp)
      end)
    (As_graph.ases g)

let partition w =
  let g = World.graph w in
  match components g with
  | [] | [ _ ] -> []
  | comps ->
    let smallest =
      List.fold_left
        (fun best c ->
          match best with
          | Some b when List.length b <= List.length c -> best
          | _ -> Some c)
        None comps
      |> Option.get
    in
    [ Diagnostic.warning ~code:c_partition
        ~hint:"add edges to connect the components or split the world"
        (Printf.sprintf
           "topology splits into %d connected components; routes cannot \
            cross the split (smallest component: %s)"
           (List.length comps)
           (String.concat ", " (List.map Asn.to_string smallest)))
    ]

(* ------------------------------------------------------------------ *)
(* Provider cycles. A cycle in the customer->provider digraph means
   some AS transitively pays itself for transit — a mislabeled
   relationship in practice, and the other half of the Gao-Rexford
   convergence premise. Iterative DFS with gray/black coloring; the
   path stack reconstructs the cycle for the message. *)

let provider_cycle w =
  let g = World.graph w in
  let color : (int, [ `Gray | `Black ]) Hashtbl.t = Hashtbl.create 64 in
  let found = ref None in
  let rec dfs path v =
    if !found = None then
      match Hashtbl.find_opt color (Asn.to_int v) with
      | Some `Black -> ()
      | Some `Gray ->
        (* v is on the current path: slice the cycle out of it *)
        let rec cut acc = function
          | x :: rest ->
            let acc = x :: acc in
            if Asn.equal x v then acc else cut acc rest
          | [] -> acc
        in
        found := Some (cut [ v ] path)
      | None ->
        Hashtbl.replace color (Asn.to_int v) `Gray;
        List.iter (fun p -> dfs (v :: path) p) (As_graph.providers g v);
        Hashtbl.replace color (Asn.to_int v) `Black
  in
  List.iter (fun v -> dfs [] v) (As_graph.ases g);
  match !found with
  | None -> []
  | Some cycle ->
    [ Diagnostic.error ~code:c_relcycle
        ~hint:"re-examine the customer/provider labels on these edges"
        (Printf.sprintf
           "customer-provider relationships form a cycle: %s — some AS \
            transitively buys transit from itself (Gao-Rexford convergence \
            premise broken)"
           (String.concat " -> "
              (List.map Asn.to_string cycle)))
    ]

(* ------------------------------------------------------------------ *)
(* MOAS: the same prefix originated by several ASes. Legitimate in
   anycast deployments, but in a verification world it is far more
   often a typo'd originate line, so flag it. The per-prefix origin
   index keeps only the last writer; walk per-AS prefix sets instead. *)

let moas w =
  let g = World.graph w in
  let origins =
    List.fold_left
      (fun acc a ->
        List.fold_left
          (fun acc p ->
            let cur =
              Option.value (Prefix.Map.find_opt p acc) ~default:[]
            in
            Prefix.Map.add p (a :: cur) acc)
          acc
          (As_graph.prefixes_of g a))
      Prefix.Map.empty (As_graph.ases g)
  in
  Prefix.Map.fold
    (fun p ases acc ->
      match ases with
      | [] | [ _ ] -> acc
      | many ->
        let many = List.sort Asn.compare many in
        Diagnostic.warning ~code:c_moas
          ~hint:
            "if this is intentional anycast, ignore; otherwise fix the \
             originate lines"
          (Printf.sprintf "prefix %s is originated by %d ASes: %s (MOAS)"
             (Prefix.to_string p) (List.length many)
             (String.concat ", "
                (List.map Asn.to_string many)))
        :: acc)
    origins []
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Cross-experiment conflicts over a batch of specs. Labels prefer the
   spec's file name, falling back to its experiment id. *)

let spec_label file (s : Spec.t) =
  match file with Some f -> f | None -> s.Spec.id

let announced (s : Spec.t) =
  List.filter_map
    (fun ev ->
      match ev.Spec.ev_kind with
      | Spec.Announce _ -> Some ev.Spec.ev_prefix
      | Spec.Withdraw -> None)
    s.Spec.events

let spec_conflicts specs =
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let out = ref [] in
  let emit d = out := d :: !out in
  for i = 0 to n - 1 do
    let file_i, si = specs.(i) in
    let li = spec_label file_i si in
    let pfx_i =
      List.sort_uniq Prefix.compare (si.Spec.prefixes @ announced si)
    in
    for j = i + 1 to n - 1 do
      let file_j, sj = specs.(j) in
      let lj = spec_label file_j sj in
      (* Overlapping address space: both experiments' routers would
         fight over the same routes on the shared muxes. *)
      let pfx_j =
        List.sort_uniq Prefix.compare (sj.Spec.prefixes @ announced sj)
      in
      let clash =
        List.find_map
          (fun p ->
            List.find_map
              (fun q -> if Prefix.overlaps p q then Some (p, q) else None)
              pfx_j)
          pfx_i
      in
      (match clash with
      | Some (p, q) ->
        emit
          (Diagnostic.error ?file:file_i ~code:c_overlap
             ~hint:"allocate disjoint prefixes to concurrent experiments"
             (Printf.sprintf
                "experiment %s uses %s which overlaps %s used by \
                 experiment %s"
                li (Prefix.to_string p) (Prefix.to_string q) lj))
      | None -> ());
      (* Shared origin ASN: both would open the mux BGP session as the
         same AS — the sessions collide. *)
      List.iter
        (fun a ->
          if List.exists (Asn.equal a) sj.Spec.asns then
            emit
              (Diagnostic.error ?file:file_i ~code:c_asn
                 ~hint:
                   "allocate a distinct origin ASN to each concurrent \
                    experiment"
                 (Printf.sprintf
                    "experiments %s and %s both originate as %s: their \
                     mux BGP sessions collide"
                    li lj (Asn.to_string a))))
        si.Spec.asns
    done;
    (* Poisoning another live experiment's ASN withdraws its routes
       from the poisoned AS's viewpoint — sabotage, even if vetted. *)
    List.iter
      (fun ev ->
        match ev.Spec.ev_kind with
        | Spec.Withdraw -> ()
        | Spec.Announce path ->
          List.iter
            (fun a ->
              for j = 0 to n - 1 do
                if j <> i then begin
                  let file_j, sj = specs.(j) in
                  if List.exists (Asn.equal a) sj.Spec.asns then
                    emit
                      (Diagnostic.warning ?file:file_i
                         ~line:ev.Spec.ev_line ~code:c_poison
                         ~hint:
                           "coordinate with the other experiment or poison \
                            a different ASN"
                         (Printf.sprintf
                            "experiment %s poisons %s, which is \
                             allocated to experiment %s"
                            li (Asn.to_string a)
                            (spec_label file_j sj)))
                end
              done)
            path)
      si.Spec.events
  done;
  List.rev !out
