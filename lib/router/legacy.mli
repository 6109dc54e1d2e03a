(** The legacy IP router (the paper's R1, a Cisco Nexus 7k class box).

    Control plane: a BGP speaker feeding a {!Bgp.Rib}; every best-route
    change is pushed to the {!Fib} through its serialized update engine.
    Next hops are resolved to L2 adjacencies with ARP — which is the
    hook the supercharger exploits: announce a virtual next-hop IP and
    answer its ARP query with a virtual MAC, and the router will happily
    tag all matching traffic with that VMAC.

    Data plane: longest-prefix match against the applied FIB, TTL
    decrement, L2 rewrite, transmit. Local delivery handles ARP and the
    BFD protocol (UDP 3784).

    Failure detection: optional per-peer BFD sessions; a BFD Down event
    withdraws that peer's routes immediately (the fast path the paper
    configures in both experiments), without waiting for the BGP hold
    timer. *)

type interface_config = {
  if_mac : Net.Mac.t;
  if_ip : Net.Ipv4.t;
  if_connected : Net.Prefix.t;
      (** subnet reachable on this interface; next hops inside it are
          ARP-resolved here *)
}

type t

val create :
  Sim.Engine.t ->
  name:string ->
  asn:Bgp.Asn.t ->
  router_id:Net.Ipv4.t ->
  interfaces:interface_config list ->
  ?fib_batch_start_latency:Sim.Time.t ->
  ?fib_per_entry_latency:Sim.Time.t ->
  unit ->
  t
(** Forwarding a packet takes 10 µs. FIB latencies default to the
    Nexus 7k calibration of {!Fib.create}. *)

val name : t -> string
val speaker : t -> Bgp.Speaker.t
val fib : t -> Fib.t

val connect_interface : t -> int -> Net.Link.t -> Net.Link.side -> unit

val add_bgp_peer :
  t ->
  name:string ->
  channel:Bgp.Channel.t ->
  side:Bgp.Channel.side ->
  ?import_local_pref:int ->
  unit ->
  Bgp.Speaker.peer
(** Adds a BGP peering; [import_local_pref] is an import policy setting
    LOCAL_PREF on every route learned from this peer (how "R1 is
    configured to prefer R2" is expressed). Received updates flow RIB → FIB automatically.
    Start sessions with [Bgp.Speaker.start (speaker t)]. *)

val enable_bfd :
  t ->
  peer:Bgp.Speaker.peer ->
  remote_ip:Net.Ipv4.t ->
  interface:int ->
  ?tx_interval:Sim.Time.t ->
  unit ->
  Bfd.Session.t
(** Runs BFD to [remote_ip] through the data plane. On Down, the peer's
    routes are withdrawn from the RIB and the resulting FIB updates are
    enqueued. *)

val receive : t -> interface:int -> Net.Ethernet.frame -> unit
(** Data-plane input (used by direct wiring and tests; links attached
    via {!connect_interface} call it automatically). *)

val receive_batch : t -> interface:int -> Net.Ethernet.frame array -> unit
(** Data-plane input for a burst arriving back to back on one
    interface: transit IPv4 frames share one FIB pass and one scheduled
    transmit event. Per-frame semantics (counters, egress order and
    timing, ARP/local handling) are identical to calling {!receive} on
    each frame in sequence. *)

val on_peer_failure : t -> (Bgp.Speaker.peer -> unit) -> unit
(** Observer for failure handling (BFD Down or BGP session loss), fired
    after the RIB withdrawal. *)

(** Data-plane counters. *)

val packets_forwarded : t -> int
val packets_no_route : t -> int
val packets_ttl_expired : t -> int
