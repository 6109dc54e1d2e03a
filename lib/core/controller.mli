(** The supercharger controller (the paper's ExaBGP + Floodlight + BFD
    composition, §3).

    It interposes itself between a legacy router and its BGP peers:

    - BGP updates from upstream peers are run through the decision
      process into a {!Bgp.Rib}, then through the Listing 1
      {!Algorithm}; the resulting announcements (with virtual next hops)
      are relayed to the supercharged router(s);
    - new backup-groups trigger switch-rule installation {e before} the
      rewritten announcement is relayed, so the data plane is ready when
      the router starts tagging;
    - ARP requests punted by the switch are answered by the
      {!Arp_responder} (VNH → VMAC);
    - per-peer BFD sessions run over the controller's own data-plane
      attachment; a detected failure triggers the Listing 2 fail-over
      after a configurable [reroute_latency] (computation + REST push),
      followed by the slow-path re-announcements that let the router
      converge in the background;
    - when BFD sees the peer again, the groups preferring it are
      re-pointed back (the inverse of Listing 2); its routes return
      through BGP re-announcement, as after any session
      re-establishment.

    Two controllers fed the same sessions compute identical VNH/VMAC
    assignments and rules (everything here is deterministic in the input
    order), which is the paper's state-free replication argument.

    The controller does not trust the switch blindly. Every failover's
    flow-mods are bracketed by a tracked barrier; a missing reply
    re-issues the rewrites idempotently with exponential backoff
    ([ack_timeout] × 2^attempt), and after [ack_max_retries] silent
    attempts the controller {e degrades}: the algorithm switches to
    passthrough (real next hops, the router's own O(#prefixes) FIB
    convergence) while periodic barrier probes test the switch. The
    first answered probe re-installs every live group rule and
    re-announces the VNHs — supercharged mode again. BFD Down events
    re-point rules immediately but the RIB withdrawal (slow path) is
    debounced by [bfd_debounce], so a spurious flap costs two rule
    re-points and zero BGP churn. *)

type t

type mode = Supercharged | Degraded

val pp_mode : Format.formatter -> mode -> unit

type 'a tuning =
  ?group_size:int ->
  ?reroute_latency:Sim.Time.t ->
  ?group_linger:Sim.Time.t ->
  ?ack_timeout:Sim.Time.t ->
  ?ack_max_retries:int ->
  ?bfd_debounce:Sim.Time.t ->
  ?probe_interval:Sim.Time.t ->
  ?bfd_detect_mult:int ->
  ?bfd_tx_interval:Sim.Time.t ->
  ?vnh_pool:Net.Prefix.t ->
  ?vmac_base:Net.Mac.t ->
  'a
(** The optional arguments of {!create}. A rig builder that fixes a
    controller's name and addresses hands the caller
    [create engine ~name ~asn ~router_id], of type
    [(unit -> t) tuning], and the caller applies its own timers. *)

val create :
  Sim.Engine.t -> name:string -> asn:Bgp.Asn.t -> router_id:Net.Ipv4.t ->
  (unit -> t) tuning
(** Defaults: [group_size] 2; [reroute_latency] 25 ms; [group_linger]
    5 s (how long an unreferenced backup-group keeps its rule before
    being garbage-collected and its VNH/VMAC recycled); [ack_timeout]
    100 ms (base barrier-reply timeout, doubled per attempt);
    [ack_max_retries] 3 (attempts before degrading); [bfd_debounce]
    100 ms (flap window before the slow-path RIB withdrawal fires);
    [probe_interval] 250 ms (barrier probes while degraded); BFD
    3 × 40 ms; allocator defaults of {!Vnh.create}.

    The controller registers its metrics in the engine's registry:
    counters [controller.updates_processed], [controller.updates_sent]
    (UPDATE messages on the wire towards routers),
    [controller.emissions], [controller.ack_timeouts],
    [controller.rule_retries], [controller.degradations],
    [controller.recoveries] and [controller.bfd_flaps_suppressed];
    gauge [controller.groups_live]; histogram
    [controller.failover_seconds] (BFD-down to last failover flow-mod
    applied, measured with an OpenFlow barrier).

    @raise Invalid_argument if [ack_max_retries < 1]. *)

val name : t -> string

val updates_of_emissions : Algorithm.emission list -> Bgp.Message.update list
(** Packs a stream of emissions into the fewest UPDATE messages a real
    speaker would put on the wire: consecutive announcements sharing an
    attribute block become one update with many NLRI; consecutive
    withdrawals become one update's [withdrawn] list. Exposed for
    tests. *)

val connect_switch :
  ?use_codec:bool -> ?faults:Sim.Faults.t -> t -> Openflow.Switch.t -> unit
(** Must be called before {!start}. With [use_codec:true] every message
    in both directions is round-tripped through the OpenFlow 1.0 binary
    codec in transit, exercising the real wire format (the integration
    tests run this way); a codec bug surfaces as [Invalid_argument].
    [faults] interposes an injector on the control path in both
    directions: dropped flow-mods and barrier replies feed the retry
    ladder; duplicates and delays exercise its idempotence. *)

val attach_dataplane : t -> Router.Endhost.t -> unit
(** The controller machine's NIC (wire its link to a switch port
    separately). Required for BFD-based failure detection. *)

val add_upstream_peer :
  t ->
  name:string ->
  ip:Net.Ipv4.t ->
  mac:Net.Mac.t ->
  switch_port:int ->
  channel:Bgp.Channel.t ->
  side:Bgp.Channel.side ->
  ?import_local_pref:int ->
  ?hold_time:int ->
  unit ->
  Bgp.Speaker.peer
(** A provider peer: BGP session over [channel], data-plane coordinates
    for rule installation, optional import policy setting LOCAL_PREF on
    everything learned from it (how "prefer provider #1" is expressed,
    like the paper's R1 configuration). *)

val add_router :
  t ->
  name:string ->
  channel:Bgp.Channel.t ->
  side:Bgp.Channel.side ->
  ?hold_time:int ->
  unit ->
  Bgp.Speaker.peer
(** A supercharged router downstream. Emissions are buffered until its
    session establishes. *)

val start : t -> unit
(** Starts BGP sessions, installs the ARP punt rule, and enables BFD to
    every upstream peer. *)

val rib : t -> Bgp.Rib.t
val groups : t -> Backup_group.t
val algorithm : t -> Algorithm.t
val provisioner : t -> Provisioner.t

val mode : t -> mode

val degraded : t -> bool
(** [true] while the controller has fallen back to the legacy path. *)

val quiescent : t -> bool
(** [true] when the controller has no convergence work in flight: it is
    supercharged (not degraded), every tracked barrier has been
    answered, no debounced slow-path withdrawal is pending, and no
    scheduled reroute/repair callback is waiting to run. This is the
    public replacement for tests that used to sleep on tick counts; the
    checker conjoins it with {!Openflow.Switch.idle} and per-peer BFD
    state agreement to define a system-wide quiescent point (periodic
    BFD/keepalive traffic never stops, so engine-queue emptiness is not
    an option). *)

val bfd_session : t -> Net.Ipv4.t -> Bfd.Session.t option
(** The BFD session towards an upstream peer, if {!start} created one.
    Exposed so fault harnesses can inject spurious state transitions. *)

val set_igp_cost_fn : t -> (Net.Ipv4.t -> int) -> unit
(** Plugs an IGP cost oracle (e.g. [Igp.Node.distance_to]) into the
    decision process: routes are stored with the IGP distance to their
    next hop, so step 6 of the tie-break — and hence the backup-group
    order — follows intra-domain reachability, the paper's "other
    intra-domain routing protocols can also be used" remark. Without it
    every next hop costs 0 (all peers directly connected, as in the
    paper's lab). *)

val attach_igp : t -> Igp.Node.t -> unit
(** Binds a live IGP node as the cost oracle {e and} subscribes to its
    changes: each SPF recomputation replays every upstream's Adj-RIB-In
    with fresh costs, so hot-potato re-ranking happens without a session
    reset (identical re-announcements are absorbed by the RIB). Next
    hops the IGP cannot reach rank below every reachable one. Takes over
    the node's [on_change] slot and the controller's cost function. *)

val on_failover : t -> (failed:Net.Ipv4.t -> flow_mods:int -> unit) -> unit
(** Fires when the Listing 2 procedure completes (rules handed to the
    switch; they still take the switch's per-rule latency to land). *)

val failovers_handled : t -> int
val updates_processed : t -> int
