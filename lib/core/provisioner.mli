(** Switch-rule provisioning — installation of backup-group rules and
    the paper's Listing 2 data-plane convergence procedure.

    One rule per backup-group:
    [match(dl_dst = VMAC) → set_dl_dst(selected NH's MAC), output(its
    port)]. The selected next hop is the first {e alive} member of the
    group's tuple; on a peer failure, every group whose selected member
    was the failed peer is re-pointed with a single flow-mod — a
    constant-size update independent of table size. *)

type peer_info = {
  pi_ip : Net.Ipv4.t;
  pi_mac : Net.Mac.t;
  pi_port : int;  (** switch port the peer hangs off *)
}

type t

val rule_priority : int
(** 100: the priority of every backup-group rule. *)

val create :
  ?metrics:Obs.Metrics.t ->
  send:(Openflow.Message.t -> unit) ->
  unit ->
  t
(** [send] is the switch control channel (from
    [Openflow.Switch.connect_controller]); [metrics] (default a
    fresh registry of its own) receives the "provisioner.flow_mods"
    counter. *)

val declare_peer : t -> peer_info -> unit
(** Registers a peer's data-plane coordinates. Must precede installing
    any group that contains it. *)

val peer : t -> Net.Ipv4.t -> peer_info option
val is_alive : t -> Net.Ipv4.t -> bool

val install_group : t -> Backup_group.binding -> unit
(** Installs (or refreshes) the group's rule, pointing at its first
    alive member. Groups whose declared members are all dead install a
    drop rule.
    @raise Invalid_argument if a member was never {!declare_peer}ed (a
    wiring bug, surfaced loudly). *)

val uninstall_group : t -> Backup_group.binding -> unit
(** Removes the group's rule (strict delete on its VMAC match) — the
    tear-down half of the group lifecycle, issued when a destroyed
    group's rule is garbage-collected. *)

val selected : t -> Backup_group.binding -> Net.Ipv4.t option
(** The member the group's rule currently points at. *)

val fail_peer : t -> Net.Ipv4.t -> Backup_group.binding list -> int
(** Listing 2. Marks the peer dead and re-points every supplied group
    whose selected member was that peer. Returns the number of flow-mods
    issued. *)

val reinstall_groups : t -> Backup_group.binding list -> int
(** Idempotent re-issue: re-sends every supplied group's rule, pointing
    at its first currently-alive member (the rule an earlier — possibly
    lost — flow-mod should have installed). Returns the number of
    flow-mods issued. The controller's retry and blackout-recovery
    paths are built on this. *)

val resync : t -> Backup_group.binding list -> int
(** Full-state reconciliation after a control-channel outage: re-issues
    the strict delete for every {!retired_vmacs} entry (an uninstall the
    outage may have eaten would otherwise leave a stale VMAC rule behind
    forever), then reinstalls every supplied group. Deletes are sent
    before installs so a recycled VMAC's fresh rule survives the sweep.
    Returns the number of flow-mods issued. *)

val retired_vmacs : t -> Net.Mac.t list
(** VMACs whose uninstall has been issued and that no later install has
    reclaimed — rules for these must not exist in a synced switch. *)

val revive_peer : t -> Net.Ipv4.t -> unit
(** Marks a peer alive again (groups are not automatically re-pointed;
    the control plane re-announces and reconverges instead, matching the
    paper's recovery story). *)

val flow_mods_sent : t -> int
