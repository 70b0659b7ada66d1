module Counter = struct
  type t = { mutable count : int }

  let inc c = c.count <- c.count + 1
  let add c n = c.count <- c.count + n
  let value c = c.count
end

module Gauge = struct
  type t = { mutable level : float; mutable high : float }

  let set g v =
    g.level <- v;
    if v > g.high then g.high <- v

  let value g = g.level
  let hwm g = g.high
end

module Histogram = struct
  type t = {
    cap : int;
    mutable n : int;
    mutable total : float;
    mutable kept : float list;  (* newest first *)
    mutable n_kept : int;
  }

  let observe h v =
    h.n <- h.n + 1;
    h.total <- h.total +. v;
    if h.n_kept < h.cap then begin
      h.kept <- v :: h.kept;
      h.n_kept <- h.n_kept + 1
    end

  let count h = h.n
  let sum h = h.total
  let samples h = List.rev h.kept
  let dropped h = h.n - h.n_kept
end

type instrument =
  | C of Counter.t
  | G of Gauge.t
  | H of Histogram.t

type entry = {
  e_name : string;
  e_labels : (string * string) list;
  e_volatile : bool;
  e_instrument : instrument;
}

(* The one registry: (name, canonical labels) -> entry. *)
let table : (string * (string * string) list, entry) Hashtbl.t =
  Hashtbl.create 64

let reset () =
  Hashtbl.iter
    (fun _ e ->
      match e.e_instrument with
      | C c -> c.Counter.count <- 0
      | G g ->
        g.Gauge.level <- 0.0;
        g.Gauge.high <- 0.0
      | H h ->
        h.Histogram.n <- 0;
        h.Histogram.total <- 0.0;
        h.Histogram.kept <- [];
        h.Histogram.n_kept <- 0)
    table

let canonical_labels labels =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if String.equal a b then
        invalid_arg
          (Printf.sprintf "Metrics: duplicate label key %S in label set" a)
      else check rest
    | [ _ ] | [] -> ()
  in
  check sorted;
  sorted

let kind_name = function
  | C _ -> "counter"
  | G _ -> "gauge"
  | H _ -> "histogram"

let register ~labels ~volatile name fresh matching =
  let labels = canonical_labels labels in
  let key = (name, labels) in
  match Hashtbl.find_opt table key with
  | Some e -> (
    match matching e.e_instrument with
    | Some i -> i
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %s already registered as a %s" name
           (kind_name e.e_instrument)))
  | None ->
    let instrument, witness = fresh () in
    Hashtbl.replace table key
      { e_name = name;
        e_labels = labels;
        e_volatile = volatile;
        e_instrument = instrument
      };
    witness

let counter ?(labels = []) ?(volatile = false) name =
  register ~labels ~volatile name
    (fun () ->
      let c = { Counter.count = 0 } in
      (C c, c))
    (function C c -> Some c | G _ | H _ -> None)

let gauge ?(labels = []) ?(volatile = false) name =
  register ~labels ~volatile name
    (fun () ->
      let g = { Gauge.level = 0.0; high = 0.0 } in
      (G g, g))
    (function G g -> Some g | C _ | H _ -> None)

let histogram ?(labels = []) ?(volatile = false) ?(sample_cap = 4096) name =
  register ~labels ~volatile name
    (fun () ->
      let h =
        { Histogram.cap = max 1 sample_cap;
          n = 0;
          total = 0.0;
          kept = [];
          n_kept = 0
        }
      in
      (H h, h))
    (function H h -> Some h | C _ | G _ -> None)

module Family = struct
  (* One metric name shared by many label sets. [get] funnels through
     the registry's memoised registration, then caches the instrument
     per canonical label set so steady-state lookups do no
     registration work; call sites hold the returned instrument, which
     keeps the increment hot path a single unboxed store. *)
  type 'a t = {
    f_get : (string * string) list -> 'a;
    f_cache : ((string * string) list, 'a) Hashtbl.t;
  }

  let make f = { f_get = f; f_cache = Hashtbl.create 8 }

  let counter ?volatile name = make (fun labels -> counter ~labels ?volatile name)

  let gauge ?volatile name = make (fun labels -> gauge ~labels ?volatile name)

  let histogram ?volatile ?sample_cap name =
    make (fun labels -> histogram ~labels ?volatile ?sample_cap name)

  let get fam labels =
    let labels = canonical_labels labels in
    match Hashtbl.find_opt fam.f_cache labels with
    | Some i -> i
    | None ->
      let i = fam.f_get labels in
      Hashtbl.replace fam.f_cache labels i;
      i
end

type value =
  | Counter_v of int
  | Gauge_v of { value : float; hwm : float }
  | Histogram_v of {
      count : int;
      sum : float;
      samples : float list;
      dropped : int;
    }

type row = { name : string; labels : (string * string) list; value : value }

let row_of_entry e =
  let value =
    match e.e_instrument with
    | C c -> Counter_v (Counter.value c)
    | G g -> Gauge_v { value = Gauge.value g; hwm = Gauge.hwm g }
    | H h ->
      Histogram_v
        { count = Histogram.count h;
          sum = Histogram.sum h;
          samples = Histogram.samples h;
          dropped = Histogram.dropped h
        }
  in
  { name = e.e_name; labels = e.e_labels; value }

let compare_rows a b =
  match String.compare a.name b.name with
  | 0 -> compare a.labels b.labels
  | c -> c

let snapshot ?(include_volatile = false) () =
  Hashtbl.fold
    (fun _ e acc ->
      if e.e_volatile && not include_volatile then acc
      else row_of_entry e :: acc)
    table []
  |> List.sort compare_rows

let counter_value ?(labels = []) name =
  match Hashtbl.find_opt table (name, canonical_labels labels) with
  | Some { e_instrument = C c; _ } -> Counter.value c
  | Some _ | None -> 0

let histogram_samples name =
  let rows =
    List.filter_map
      (fun r ->
        match r.value with
        | Histogram_v { samples; dropped; _ } when r.name = name ->
          Some (samples, dropped)
        | _ -> None)
      (snapshot ~include_volatile:true ())
  in
  (List.concat_map fst rows, List.fold_left (fun n (_, d) -> n + d) 0 rows)

let row_name r =
  match r.labels with
  | [] -> r.name
  | labels ->
    Printf.sprintf "%s{%s}" r.name
      (String.concat ","
         (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels))
