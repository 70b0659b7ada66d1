(** The researcher-facing web portal (paper §3, "Easing management and
    experiment deployment"): account requests, advisory-board vetting
    of experiment proposals, and automated provisioning — the portal
    emits the exact Quagga-style client configuration a researcher
    needs, validated by our own parser.

    The advisory board is a list of reviewer functions; a proposal
    needs a strict majority of approvals — and unanimity when it
    requests dangerous capabilities (poisoning, spoofing). The default
    board applies the paper's safety instincts: poisoning and spoofing
    need explicit justification in the proposal text. *)

open Peering_net

type account = {
  username : string;
  email : string;
  affiliation : string;
  mutable approved : bool;
}

type proposal = {
  proposal_id : string;
  username_of : string;
  description : string;
  n_prefixes : int;
  wants_poison : bool;
  wants_spoof : bool;
}

type review = Approve | Reject of string

type reviewer = proposal -> review

type provision_kit = {
  experiment : Experiment.t;
  sites : (string * Ipv4.t) list;  (** site name, server endpoint *)
  client_config : string;
      (** bgpd configuration for the researcher's client router —
          guaranteed to parse with {!Peering_router.Config} *)
  tunnel_endpoints : (string * Ipv4.t) list;
      (** OpenVPN-style endpoints, one per site *)
}

type t

val create : ?board:reviewer list -> Testbed.t -> t

val register :
  t -> username:string -> email:string -> affiliation:string ->
  (unit, string) result
(** Request an account. Academic affiliations ([.edu] or a non-empty
    institution string) are auto-approved; duplicates rejected. *)

val account : t -> string -> account option

val submit :
  t ->
  username:string ->
  id:string ->
  description:string ->
  ?n_prefixes:int ->
  ?wants_poison:bool ->
  ?wants_spoof:bool ->
  unit ->
  (unit, string) result
(** Queue a proposal for review. Requires an approved account. *)

val pending : t -> proposal list

val run_board : t -> (string * (Experiment.t, string) result) list
(** Review every pending proposal: majority approval provisions the
    experiment through the controller (allocation + activation);
    rejection reports the reviewers' reasons. Returns per-proposal
    outcomes and clears the queue. *)

val provision : t -> experiment_id:string -> (provision_kit, string) result
(** Produce the provisioning kit for an approved experiment: the
    client configuration (with per-site neighbors and an export
    route-map limiting announcements to the experiment's prefixes),
    endpoints and tunnels. *)
