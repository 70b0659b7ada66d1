open Peering_net
open Peering_topo

let c_pref = "STAB-PREF"
let c_wheel = "STAB-WHEEL"

(* Gao–Rexford's stability condition: every AS strictly prefers
   customer routes over peer/provider routes (plus no provider
   cycles, checked by Graph_checks). A session whose import
   preference can reach the AS's customer level breaks the premise;
   a cycle of such sessions is the skeleton of a dispute wheel
   (Griffin–Shepherd–Wilfong): each member may prefer the route
   through the next member over its own customer/direct route, which
   is the configuration that lets BGP oscillate forever. *)

let lp w ~at ~from =
  match World.local_pref w ~at ~from with Some n -> n | None -> min_int

(* The lowest preference [v] gives any customer session — a
   non-customer session at or above it may displace customer routes.
   With no customers, the class default stands in. *)
let customer_floor w v =
  let g = World.graph w in
  match As_graph.customers g v with
  | [] -> World.default_local_pref Relationship.Customer
  | cs ->
    List.fold_left (fun acc c -> min acc (lp w ~at:v ~from:c)) max_int cs

(* Risky directed edges v -> u: u is v's peer or provider and v may
   prefer u's routes at customer level. Ascending (v, u). *)
let risky_edges w =
  let g = World.graph w in
  List.concat_map
    (fun v ->
      let floor = customer_floor w v in
      List.filter_map
        (fun (u, rel) ->
          match rel with
          | Relationship.Customer -> None
          | Relationship.Peer | Relationship.Provider ->
            let pref = lp w ~at:v ~from:u in
            if pref >= floor then Some (v, u, rel, pref, floor) else None)
        (As_graph.neighbors g v))
    (As_graph.ases g)

let prefer_non_customer w =
  List.map
    (fun (v, u, rel, pref, floor) ->
      Diagnostic.warning ~code:c_pref
        ~hint:
          (Printf.sprintf
             "lower the session's local-pref below %d so customer routes \
              always win"
             floor)
        (Printf.sprintf
           "%s imports from its %s %s at local-pref %d, at or above \
            its customer level %d: non-customer routes can displace \
            customer routes (Gao-Rexford stability premise broken)"
           (Asn.to_string v)
           (Relationship.to_string rel)
           (Asn.to_string u) pref floor))
    (risky_edges w)

(* ------------------------------------------------------------------ *)
(* Iterative Tarjan SCC over the risky digraph. *)

let sccs nodes succ =
  let index : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let low : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let on_stack : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let key = Asn.to_int in
  let visit v =
    Hashtbl.replace index (key v) !counter;
    Hashtbl.replace low (key v) !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack (key v) true
  in
  List.iter
    (fun root ->
      if not (Hashtbl.mem index (key root)) then begin
        visit root;
        let call = ref [ (root, ref (succ root)) ] in
        while !call <> [] do
          match !call with
          | [] -> ()
          | (v, rest) :: tail -> (
            match !rest with
            | n :: ns ->
              rest := ns;
              if not (Hashtbl.mem index (key n)) then begin
                visit n;
                call := (n, ref (succ n)) :: !call
              end
              else if
                Option.value
                  (Hashtbl.find_opt on_stack (key n))
                  ~default:false
              then
                Hashtbl.replace low (key v)
                  (min (Hashtbl.find low (key v)) (Hashtbl.find index (key n)))
            | [] ->
              call := tail;
              (match tail with
              | (p, _) :: _ ->
                Hashtbl.replace low (key p)
                  (min (Hashtbl.find low (key p)) (Hashtbl.find low (key v)))
              | [] -> ());
              if Hashtbl.find low (key v) = Hashtbl.find index (key v) then begin
                let rec pop acc =
                  match !stack with
                  | x :: rest ->
                    stack := rest;
                    Hashtbl.replace on_stack (key x) false;
                    let acc = x :: acc in
                    if Asn.equal x v then acc else pop acc
                  | [] -> acc
                in
                out := pop [] :: !out
              end)
        done
      end)
    nodes;
  List.rev !out

let wheels w =
  let edges = risky_edges w in
  let succ_tbl : (int, Asn.t list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (v, u, _, _, _) ->
      let cur = Option.value (Hashtbl.find_opt succ_tbl (Asn.to_int v)) ~default:[] in
      Hashtbl.replace succ_tbl (Asn.to_int v) (cur @ [ u ]))
    edges;
  let nodes =
    List.sort_uniq Asn.compare (List.map (fun (v, _, _, _, _) -> v) edges)
  in
  let succ v =
    Option.value (Hashtbl.find_opt succ_tbl (Asn.to_int v)) ~default:[]
  in
  sccs nodes succ
  |> List.filter_map (fun comp ->
         if List.length comp < 2 then None
         else Some (List.sort Asn.compare comp))
  |> List.sort (fun a b -> Asn.compare (List.hd a) (List.hd b))
  |> List.map (fun members ->
         Diagnostic.error ~code:c_wheel
           ~hint:
             "restore strict prefer-customer import preferences somewhere \
              on the cycle"
           (Printf.sprintf
              "potential dispute wheel: %s each may prefer a \
               non-customer route via the next — BGP can oscillate \
               (no Gao-Rexford convergence guarantee)"
              (String.concat ", " (List.map Asn.to_string members))))
