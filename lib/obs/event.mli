(** The typed trace-event vocabulary.

    Every subsystem on the control- and data-plane hot paths reports
    what happened as one of these constructors instead of a formatted
    string, so tests and experiment harnesses can pattern-match on
    events ("the route server filtered two deliveries of this prefix")
    rather than grep rendered text. *)

open Peering_net

type level = Debug | Info | Warn
(** Severity, carried by every {!Sink.event}. *)

type verdict =
  | Accepted
  | Rejected of string  (** the safety layer's reason, rendered *)

(** What a live monitoring-station detector fired on
    (see {!Peering_measure.Monitor}). *)
type alert_kind =
  | Moas  (** a watched prefix announced from an unexpected origin AS *)
  | Out_of_cone_leak
      (** a peer announced a prefix outside its allowed-export cone *)
  | Flap_churn  (** announce/withdraw churn past the flap limit *)
  | Reach_dip  (** a watched prefix's reach fell below its floor *)

val alert_kind_to_string : alert_kind -> string
(** ["moas"], ["out_of_cone_leak"], ["flap_churn"] or ["reach_dip"] —
    the stable label used in alert rows and metric labels. *)

type t =
  | Session_transition of {
      peer : string;  (** remote identity, once known; ["?"] before OPEN *)
      from_state : string;
      to_state : string;
    }  (** A BGP session FSM moved between RFC 4271 states. *)
  | Update_rx of { peer : string; announced : int; withdrawn : int }
      (** An UPDATE arrived on an established session. *)
  | Update_tx of { peer : string; announced : int; withdrawn : int }
      (** An UPDATE was encoded and put on the wire. *)
  | Decision_run of { prefix : Prefix.t; candidates : int }
      (** The decision process ranked the candidate set for a prefix. *)
  | Safety_verdict of { client : string; prefix : Prefix.t; verdict : verdict }
      (** The PEERING safety layer ruled on a client announcement. *)
  | Route_server_pass of {
      member : string;
      prefix : Prefix.t;
      delivered : int;
      filtered : int;  (** deliveries withheld by control communities *)
    }  (** A route-server announcement fanned out to the membership. *)
  | Dampening_penalty of {
      peer : string;
      prefix : Prefix.t;
      penalty : float;
      suppressed : bool;
    }  (** RFC 2439 accounting after a flap. *)
  | Tunnel_forward of { tunnel : string; bytes : int }
      (** A packet crossed an OpenVPN-style tunnel. *)
  | Fault_injected of { target : string; fault : string }
      (** {!Peering_fault} injected a fault (rendered fault class) on a
          named target — a link, mux or tunnel. *)
  | Recovered of { target : string; after_s : float }
      (** A faulted target returned to its converged state, [after_s]
          virtual seconds after the fault cleared. *)
  | Monitor_alert of {
      kind : alert_kind;
      mux : string;  (** the mux whose BMP feed triggered the detector *)
      prefix : Prefix.t;
      detail : string;  (** rendered specifics (origins, peer, counts) *)
    }  (** A live detector on the monitoring station fired. *)

val to_string : t -> string
(** A stable one-line rendering (used by substring search over traces
    and by {!Sink.message}). *)

val level_to_string : level -> string
(** ["debug"], ["info"] or ["warn"]. *)
