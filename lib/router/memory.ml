open Peering_net
open Peering_bgp

let measured_words rib = Obj.reachable_words (Obj.repr rib)
let measured_bytes rib = measured_words rib * (Sys.word_size / 8)

(* Quagga's costs: the process baseline, a [bgp_node] per prefix, a
   [bgp_info] per (prefix, peer) path and its share of the [attr]s. *)
let base_bytes = 6 * 1024 * 1024
let node_bytes = 96
let path_bytes = 136
let attr_bytes = 72

let model_bytes ~peers ~prefixes_per_peer =
  base_bytes
  + (prefixes_per_peer * node_bytes)
  + (peers * prefixes_per_peer * (path_bytes + attr_bytes))

let fill_rib ~peers ~prefixes_per_peer =
  let rib = Rib.create () in
  (* Carve prefixes from 80.0.0.0/4: room for 1M /24s. *)
  let region = Prefix.of_string_exn "80.0.0.0/4" in
  for peer = 1 to peers do
    let peer_addr = Ipv4.of_octets 10 0 (peer lsr 8) (peer land 0xFF) in
    let source =
      Some
        { Route.peer_asn = Asn.of_int (64000 + peer);
          peer_addr;
          peer_router_id = peer_addr;
          ebgp = true
        }
    in
    let key = Ipv4.to_string peer_addr in
    for i = 0 to prefixes_per_peer - 1 do
      let prefix = Prefix.nth_subprefix region 24 i in
      let attrs =
        Attrs.make
          ~as_path:
            (As_path.of_asns
               [ Asn.of_int (64000 + peer); Asn.of_int (3356 + (i mod 11)) ])
          ~next_hop:peer_addr ()
      in
      ignore (Rib.announce rib ~peer:key (Route.make ?source prefix attrs))
    done
  done;
  rib
