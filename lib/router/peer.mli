(** Provider edge router (the paper's R2/R3).

    A deliberately simple node: it answers ARP for its address, responds
    to BFD (auto-creating a responder session per remote, like FreeBFD in
    responder role), hands every received data packet to a delivery
    callback (the paper wires R2/R3 to the sink FPGA), and carries a BGP
    speaker used to originate a routing feed. *)

type t

val create :
  Sim.Engine.t ->
  name:string ->
  asn:Bgp.Asn.t ->
  mac:Net.Mac.t ->
  ip:Net.Ipv4.t ->
  ?bfd_tx_interval:Sim.Time.t ->
  unit ->
  t
(** [ip] doubles as the BGP router-id. [bfd_tx_interval] applies to the
    responder sessions it creates. *)

val name : t -> string
val mac : t -> Net.Mac.t
val ip : t -> Net.Ipv4.t
val asn : t -> Bgp.Asn.t

val speaker : t -> Bgp.Speaker.t

val add_bgp_peer :
  t ->
  name:string ->
  channel:Bgp.Channel.t ->
  side:Bgp.Channel.side ->
  Bgp.Speaker.peer

val announce_to_all : t -> Bgp.Message.update -> unit
(** Sends the update on every established session. *)

val connect : t -> Net.Link.t -> Net.Link.side -> unit

val on_delivery : t -> (Net.Ipv4_packet.t -> unit) -> unit
(** Every non-local IP packet the peer receives goes here — the wire to
    the sink. *)

val receive : t -> Net.Ethernet.frame -> unit

val packets_delivered : t -> int
