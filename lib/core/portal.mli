(** The researcher-facing web portal (paper §3, "Easing management and
    experiment deployment"): account requests, advisory-board vetting
    of experiment proposals, and automated provisioning — the portal
    emits the exact Quagga-style client configuration a researcher
    needs, validated by our own parser.

    The advisory board's vetting is the controller's
    ({!Controller.propose}): a proposal asks for one prefix and no
    dangerous capability, and the portal only forwards it there. *)

open Peering_net

type proposal = {
  proposal_id : string;
  username_of : string;
  description : string;
}

type provision_kit = {
  client_config : string;
      (** bgpd configuration for the researcher's client router —
          guaranteed to parse with {!Peering_router.Config} *)
  tunnel_endpoints : (string * Ipv4.t) list;
      (** OpenVPN-style endpoints, one per site *)
}

type t

val create : Testbed.t -> t

val register :
  t -> username:string -> email:string -> affiliation:string ->
  (unit, string) result
(** Request an account. Academic affiliations ([.edu] or a non-empty
    institution string) are auto-approved; duplicates rejected. *)

val approved : t -> string -> bool option
(** Whether the account was approved; [None] for no such account. *)

val submit :
  t ->
  username:string ->
  id:string ->
  description:string ->
  (unit, string) result
(** Queue a proposal for review. Requires an approved account. *)

val pending : t -> proposal list

val forward_queued : t -> (string * (Experiment.t, string) result) list
(** Forward every pending proposal to {!Controller.propose}, in queue
    order: one the controller approves is activated; a rejection
    reports the controller's reason. Returns per-proposal outcomes and
    clears the queue. *)

val provision : t -> experiment_id:string -> (provision_kit, string) result
(** Produce the provisioning kit for an approved experiment: the
    client configuration (with per-site neighbors and an export
    route-map limiting announcements to the experiment's prefixes),
    endpoints and tunnels. *)
