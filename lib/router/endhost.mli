(** A minimal IP end host with one interface.

    Speaks ARP (resolves and answers) and sends/receives UDP. Used for
    any machine that needs a data-plane presence without being a router:
    the supercharger controller's BFD attachment to the switch, and the
    hosts in the examples. *)

type t

val create :
  Sim.Engine.t ->
  name:string ->
  mac:Net.Mac.t ->
  ip:Net.Ipv4.t ->
  unit ->
  t

val name : t -> string
val mac : t -> Net.Mac.t
val ip : t -> Net.Ipv4.t

val connect : t -> Net.Link.t -> Net.Link.side -> unit
(** Plugs the host into one side of a link. *)

val resolve : t -> Net.Ipv4.t -> (Net.Mac.t -> unit) -> unit
(** ARP resolution (cached). *)

val send_udp :
  t -> dst:Net.Ipv4.t -> src_port:int -> dst_port:int -> string -> unit
(** Resolves [dst] on the local segment and transmits. *)

val on_udp : t -> (src:Net.Ipv4.t -> Net.Udp.t -> unit) -> unit
(** Callback for UDP datagrams addressed to this host. *)

val receive : t -> Net.Ethernet.frame -> unit
(** Direct data-plane input (used when wiring without a {!Net.Link}). *)
