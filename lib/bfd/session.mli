(** BFD session (RFC 5880, asynchronous mode).

    Failure detection is what bounds the supercharged router's
    convergence time: with transmit interval [tx] and detection
    multiplier [m], a dead peer is declared down at most [m × tx] after
    its last control packet. The session is transport-agnostic — the
    owner supplies a [send] function and feeds received packets in via
    {!receive}, so the same code runs over the simulated data plane (UDP
    port 3784) or point-to-point. *)

type t

val create :
  Sim.Engine.t ->
  ?name:string ->
  local_discriminator:int32 ->
  ?tx_interval:Sim.Time.t ->
  send:(Packet.t -> unit) ->
  unit ->
  t
(** [tx_interval] (default 40 ms, the paper's calibration) is both the
    desired transmit and the required receive interval; every session
    advertises {!detect_mult}. The session starts in
    [Down] and begins transmitting when {!enable}d.

    @raise Invalid_argument if [tx_interval] is under 1 µs, the wire
    format's unit. *)

val detect_mult : int
(** The detection multiplier every session advertises: 3, the paper's
    calibration. A dead peer is declared down within [detect_mult] ×
    [tx_interval]. *)

val enable : t -> unit
val disable : t -> unit
(** Moves to [Admin_down] and announces it to the peer. *)

val receive : t -> Packet.t -> unit
(** Feed a control packet from the peer into the state machine. *)

val state : t -> Packet.state
val name : t -> string

val detection_time : t -> Sim.Time.t
(** Current detection time: remote detect-mult × the negotiated receive
    interval (the configured bound before negotiation completes). *)

val inject_state : t -> Packet.state -> unit
(** Fault-injection hook: forces the FSM into the given state (firing
    {!on_state_change}) as if detection had fired or a rogue packet had
    been accepted. No-op in [Admin_down] or when already in that state.
    A live peer drags the session back through the normal handshake, so
    injecting [Down] on a healthy session produces a realistic spurious
    flap; an injected [Up] on a silent peer is re-knocked [Down] by the
    detection timer. *)

val on_state_change : t -> (Packet.state -> Packet.diagnostic -> unit) -> unit
(** Single callback; fires on every transition, in particular
    [Up -> Down] with [Control_detection_time_expired] when the peer
    goes silent. *)

val packets_sent : t -> int
val packets_received : t -> int
