(** OpenFlow switch model (the HP E3800 of the paper's testbed).

    Data plane: frames arriving on a port are matched against the flow
    table and forwarded after a small pipeline latency. Misses are punted
    to the controller as packet-ins (or dropped when no controller is
    connected).

    Control plane: flow-mods are applied by a {e serialized} table-update
    engine with a per-rule installation latency — the quantity that makes
    supercharged convergence O(#peers): rewriting k backup-group rules
    costs k × latency. Barrier requests are answered once every earlier
    flow-mod has been applied, exactly like OFPT_BARRIER. *)

type t

val create :
  Sim.Engine.t ->
  ?name:string ->
  ?flow_mod_latency:Sim.Time.t ->
  n_ports:int ->
  unit ->
  t
(** [flow_mod_latency] defaults to 2 ms (hardware TCAM update).
    Forwarding a frame takes 4 µs (store-and-forward + pipeline), and
    the switch answers a features request with datapath id 1. *)

val name : t -> string
val table : t -> Flow_table.t

val set_port_tx : t -> port:int -> (Net.Ethernet.frame -> unit) -> unit
(** Where frames output on [port] go. *)

val receive : t -> port:int -> Net.Ethernet.frame -> unit
(** Data-plane input. *)

val receive_batch : t -> port:int -> Net.Ethernet.frame array -> unit
(** Data-plane input for a burst arriving back to back on one port:
    one flow-table traversal setup and one scheduled pipeline event for
    the whole batch. Per-frame semantics (matching, counters,
    packet-ins, output order and timing) are identical to calling
    {!receive} on each frame in sequence. *)

val attach_link : t -> port:int -> Net.Link.t -> Net.Link.side -> unit
(** Wires [port] to one side of a link, in both directions. *)

val connect_controller : t -> (Message.t -> unit) -> Message.t -> unit
(** [connect_controller t to_controller] registers a control channel:
    the switch sends packet-ins through [to_controller] (replies to
    requests go only to the requesting controller), and the returned
    function is how that controller sends messages to the switch.
    Several controllers may connect (OpenFlow "equal" role) — the §3
    reliability design runs two supercharger replicas against the same
    switch. Control messages propagate instantaneously; latency is
    modelled on rule application. *)

val on_flow_mod_applied : t -> (Flow_table.flow_mod -> unit) -> unit
(** Observer fired after each flow-mod lands in the table (after its
    installation latency) — what an experiment keys its re-probes on. *)

val flow_mods_applied : t -> int
val packets_forwarded : t -> int
val packets_dropped : t -> int
val packet_ins_sent : t -> int

val pending_flow_mods : t -> int
(** Depth of the serialized table-update queue. *)

val idle : t -> bool
(** [true] when the table-update engine is drained: no queued control
    operation and none in flight. One conjunct of the system-wide
    quiescence predicate (see {!Supercharger.Controller.quiescent}). *)

type resolution =
  | Forward of Net.Ethernet.frame * int list
      (** rewritten frame and the egress ports it leaves on *)
  | Punt  (** matched a rule whose action set punts to the controller *)
  | Miss  (** no matching rule (would become a packet-in / drop) *)
  | Blackhole  (** matched a rule with an empty action set *)

val resolve : t -> port:int -> Net.Ethernet.frame -> resolution
(** Side-effect-free single-packet resolution: runs the frame through
    the flow table and action pipeline exactly as {!receive} would, but
    touches no counters, schedules nothing and transmits nothing. This
    is the probe the differential checker aims at the data plane. *)

val resolve_batch :
  t -> port:int -> Net.Ethernet.frame array -> resolution array -> unit
(** [resolve_batch t ~port frames out] is pointwise {!resolve} over the
    burst, writing [out.(i)] for [frames.(i)] and sharing one
    table-traversal setup and one scratch match context. Equally
    side-effect-free. The output array is caller-owned — allocate once,
    reuse across bursts; the per-frame loop allocates nothing beyond
    the resolutions themselves (enforced by [hot-path-alloc]). Raises
    [Invalid_argument] if [out] is shorter than [frames]. *)
