open Peering_net

type level = Debug | Info | Warn

type verdict = Accepted | Rejected of string

type alert_kind = Moas | Out_of_cone_leak | Flap_churn | Reach_dip

let alert_kind_to_string = function
  | Moas -> "moas"
  | Out_of_cone_leak -> "out_of_cone_leak"
  | Flap_churn -> "flap_churn"
  | Reach_dip -> "reach_dip"

type t =
  | Session_transition of {
      peer : string;
      from_state : string;
      to_state : string;
    }
  | Update_rx of { peer : string; announced : int; withdrawn : int }
  | Update_tx of { peer : string; announced : int; withdrawn : int }
  | Decision_run of { prefix : Prefix.t; candidates : int }
  | Safety_verdict of { client : string; prefix : Prefix.t; verdict : verdict }
  | Route_server_pass of {
      member : string;
      prefix : Prefix.t;
      delivered : int;
      filtered : int;
    }
  | Dampening_penalty of {
      peer : string;
      prefix : Prefix.t;
      penalty : float;
      suppressed : bool;
    }
  | Tunnel_forward of { tunnel : string; bytes : int }
  | Fault_injected of { target : string; fault : string }
  | Recovered of { target : string; after_s : float }
  | Monitor_alert of {
      kind : alert_kind;
      mux : string;
      prefix : Prefix.t;
      detail : string;
    }

let to_string = function
  | Session_transition { peer; from_state; to_state } ->
    Printf.sprintf "session %s: %s -> %s" peer from_state to_state
  | Update_rx { peer; announced; withdrawn } ->
    Printf.sprintf "update rx from %s: %d announced, %d withdrawn" peer
      announced withdrawn
  | Update_tx { peer; announced; withdrawn } ->
    Printf.sprintf "update tx to %s: %d announced, %d withdrawn" peer
      announced withdrawn
  | Decision_run { prefix; candidates } ->
    Printf.sprintf "decision over %s: %d candidates"
      (Prefix.to_string prefix) candidates
  | Safety_verdict { client; prefix; verdict } -> (
    match verdict with
    | Accepted ->
      Printf.sprintf "safety: %s may announce %s" client
        (Prefix.to_string prefix)
    | Rejected reason ->
      Printf.sprintf "safety: %s refused %s (%s)" client
        (Prefix.to_string prefix) reason)
  | Route_server_pass { member; prefix; delivered; filtered } ->
    Printf.sprintf "route server: %s from %s delivered to %d, filtered for %d"
      (Prefix.to_string prefix) member delivered filtered
  | Dampening_penalty { peer; prefix; penalty; suppressed } ->
    Printf.sprintf "dampening: %s/%s penalty %.0f%s" peer
      (Prefix.to_string prefix) penalty
      (if suppressed then " (suppressed)" else "")
  | Tunnel_forward { tunnel; bytes } ->
    Printf.sprintf "tunnel %s forwarded %d bytes" tunnel bytes
  | Fault_injected { target; fault } ->
    Printf.sprintf "fault on %s: %s" target fault
  | Recovered { target; after_s } ->
    Printf.sprintf "%s recovered after %.3fs" target after_s
  | Monitor_alert { kind; mux; prefix; detail } ->
    Printf.sprintf "monitor alert [%s] %s at %s: %s"
      (alert_kind_to_string kind)
      (Prefix.to_string prefix) mux detail

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
