(** The part of the paper's Fig. 4 lab that every rig shares: the
    OpenFlow switch, providers R2..R(n+1) on their links, and
    [replicas] supercharger controllers, each with its NIC on the
    switch, a BGP session to every provider and one towards R1.
    {!Topology}, the differential checker, the fault and controller
    tests and the dual-controller example all build it here.

    Address and port plan: R1's uplink on port 0; provider [i] on port
    [1 + i], MAC [00:bb:00:00:00:(2+i)], IP [10.0.0.(2+i)], AS
    [65002 + i]; replica [i]'s NIC on port [1 + n_peers + i], MAC
    [00:cc:00:00:00:(1+i)], IP [10.0.0.(100+i)]. R1 and the
    controllers speak for AS 65001. *)

val ip_r1 : Net.Ipv4.t
val asn_r1 : Bgp.Asn.t

val r1_uplink : Router.Legacy.interface_config
(** R1's interface 0, the one {!create} plugs into port 0: MAC
    [00:aa:00:00:00:01], [10.0.0.1] in [10.0.0.0/8]. *)

val mac_peer : int -> Net.Mac.t
val ip_peer : int -> Net.Ipv4.t
val asn_peer : int -> Bgp.Asn.t
val port_peer : int -> int
val mac_controller : int -> Net.Mac.t
val ip_controller : int -> Net.Ipv4.t
val port_controller : n_peers:int -> int -> int

val local_pref_of_peer : int -> int
(** The import ladder: 200 for peer 0, 10 less for each next peer. *)

type replica = {
  controller : Supercharger.Controller.t;
  upstream : Bgp.Channel.t array;  (** to provider [i]; controller on side A *)
  downstream : Bgp.Channel.t;  (** to R1; controller on side A *)
}

type t = {
  engine : Sim.Engine.t;
  switch : Openflow.Switch.t;
  peers : Router.Peer.t array;
  peer_links : Net.Link.t array;
  r1 : Router.Legacy.t option;
  r1_link : Net.Link.t option;
  replicas : replica array;
  router_rx : Bgp.Message.update Stack.t;
      (** UPDATEs the recording R1 received, newest on top *)
}

val create :
  Sim.Engine.t ->
  ?flow_mod_latency:Sim.Time.t ->
  ?of_codec:bool ->
  ?of_faults:Sim.Faults.t ->
  ?bgp_wire:bool ->
  ?import_local_pref:bool ->
  ?bfd_tx_interval:Sim.Time.t ->
  ?controller:
    ((unit -> Supercharger.Controller.t) Supercharger.Controller.tuning ->
    Supercharger.Controller.t) ->
  ?r1:Router.Legacy.t ->
  n_peers:int ->
  replicas:int ->
  unit ->
  t
(** Builds the lab; nothing runs until {!start}. The address plan caps
    [n_peers] at 98. [of_codec] (default
    [false]) and [of_faults] apply to every replica's OpenFlow path,
    [bgp_wire] to every BGP channel (see {!bgp_channel}).
    [import_local_pref] (default [true]) applies {!local_pref_of_peer}
    on import; without it routes rank on their own attributes. [bfd_tx_interval]
    configures the providers' responders. [controller] gets
    each replica's [Controller.create], applied to its name, AS and
    router-id, and applies the caller's timers (default: none).

    With [r1], R1's interface 0 is plugged into port 0 and R1 peers
    with every replica; without it, every [downstream] channel ends in
    a recording stub that answers OPEN and keeps UPDATEs in
    [router_rx]. With [replicas = 0] (plain mode) the caller wires R1
    to the providers. *)

val bgp_channel : ?bgp_wire:bool -> Sim.Engine.t -> string -> Bgp.Channel.t
(** A named BGP channel; [bgp_wire] (default [false]) runs it through
    the RFC 4271 codec with 512-byte fragmentation. *)

val start : t -> unit
(** Starts every replica, then R1's speaker, then every provider's. *)
