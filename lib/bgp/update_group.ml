open Peering_net

let max_message = 4096
let header_overhead = 23 (* marker + length + type + the two length fields *)

(* Sizes are for a default session: 2-octet ASNs, no ADD-PATH. *)
let prefix_bytes p = 1 + ((Prefix.len p + 7) / 8)

let attrs_bytes attrs =
  (* Encode once to size the fixed part of each message. *)
  Bytes.length
    (Wire.encode Wire.default_opts
       (Message.Update { withdrawn = []; attrs = Some attrs; nlri = [] }))
  - 19 (* marker+len+type *)

(* Split [prefixes] into chunks whose encoded size fits alongside
   [fixed] bytes of attribute data. *)
let chunk ~fixed prefixes =
  let budget = max_message - header_overhead - fixed in
  let rec go current size acc = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | p :: rest ->
      let b = prefix_bytes p in
      if size + b > budget && current <> [] then
        go [ p ] b (List.rev current :: acc) rest
      else go (p :: current) (size + b) acc rest
  in
  go [] 0 [] prefixes

let group announcements =
  (* Bucket by attribute equality, preserving first-seen order. *)
  let buckets : (Attrs.t * Prefix.t list ref) list ref = ref [] in
  List.iter
    (fun (p, attrs) ->
      match
        List.find_opt (fun (a, _) -> Attrs.equal a attrs) !buckets
      with
      | Some (_, l) -> l := p :: !l
      | None -> buckets := !buckets @ [ (attrs, ref [ p ]) ])
    announcements;
  List.concat_map
    (fun (attrs, l) ->
      let fixed = attrs_bytes attrs in
      List.map
        (fun prefixes ->
          { Message.withdrawn = [];
            attrs = Some attrs;
            nlri = List.map (fun p -> (0, p)) prefixes
          })
        (chunk ~fixed (List.rev !l)))
    !buckets

let group_withdrawals prefixes =
  List.map
    (fun chunk_prefixes ->
      { Message.withdrawn = List.map (fun p -> (0, p)) chunk_prefixes;
        attrs = None;
        nlri = []
      })
    (chunk ~fixed:0 prefixes)

let message_count announcements = List.length (group announcements)
