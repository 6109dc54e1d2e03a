(** Load-balancing supercharging (§1 of the paper):

    "poor load-balancing decisions made by routers due to sub-optimal
    stateless hash-functions can be overwritten dynamically as the
    traffic traverses the neighboring SDN switch".

    The router is provisioned (through the usual VNH/VMAC trick) to tag
    all balanced traffic with one VMAC; the switch then spreads flows
    across the equal-cost peers with exact per-flow rules assigned
    least-loaded-first, instead of the router's fixed hash. The hardware
    hash the paper criticises ([RFC 2992]-style modulo on header bits)
    is available as {!static_hash} so experiments can quantify the
    imbalance it causes on skewed traffic. *)

type t

val create :
  allocator:Vnh.t ->
  send:(Openflow.Message.t -> unit) ->
  t
(** One (VNH, VMAC) pair is drawn as the balanced-traffic tag. Its
    rules take priority 300, above the backup-group rules. *)

val vnh : t -> Net.Ipv4.t
val vmac : t -> Net.Mac.t

val add_target : t -> Provisioner.peer_info -> unit
(** Registers an equal-cost next hop; also (re)installs the default
    rule sending unmatched tagged traffic to the first target. *)

type flow_key = {
  fk_src : Net.Ipv4.t;
  fk_dst : Net.Ipv4.t;
  fk_src_port : int;
  fk_dst_port : int;
}

val flow_key_of_packet : Net.Ipv4_packet.t -> flow_key option
(** [None] for non-UDP packets. *)

val assign : t -> flow_key -> Net.Ipv4.t
(** Pins the flow to the least-loaded target (installing its exact
    5-tuple rule) and returns the chosen next hop; idempotent per
    key. *)

val assignment : t -> flow_key -> Net.Ipv4.t option

val remove_target : t -> Net.Ipv4.t -> unit
(** Peer loss: deregisters the target, re-points the default rule at the
    first surviving target and rebalances every flow pinned to the lost
    peer least-loaded-first (each flow's rule is overwritten in place).
    With no surviving target all balanced rules are deleted instead.
    Unknown targets are a no-op. *)

val load : t -> Net.Ipv4.t -> int
(** Flows currently pinned to the target. *)

val imbalance : t -> float
(** max load / mean load over the targets; 1.0 is a perfect spread. *)

val static_hash : n_targets:int -> flow_key -> int
(** The router's stateless hash the paper calls sub-optimal: a modulo
    over low destination bits (flows sharing low bits pile onto one
    next hop). *)

val rules_sent : t -> int
