(** Point-to-point links.

    A link joins two devices (sides [A] and [B]), delivers frames after a
    propagation delay, and can be administratively taken down — the
    simulated equivalent of "we then disconnected R2 from the switch"
    (§4). Frames in flight when the link goes down are lost, like on a
    pulled cable. *)

type side = A | B

val other : side -> side

type t

val create :
  Sim.Engine.t -> ?name:string -> ?delay:Sim.Time.t -> unit -> t
(** Default [delay] is 5 µs (a few metres of lab cabling plus store-and-
    forward of a small frame at 1 GbE). *)

val name : t -> string

val attach : t -> side -> (Ethernet.frame -> unit) -> unit
(** Sets the receive callback of the device plugged into [side].
    Frames sent from the other side are delivered to it. *)

val send : t -> side -> Ethernet.frame -> unit
(** [send t side frame] transmits from [side] towards the other side.
    Silently dropped when the link is down or the far side is
    unattached. *)

val set_up : t -> bool -> unit
(** Administrative up/down. Taking the link down drops all frames
    currently in flight and future sends until brought back up. *)

val set_tap : t -> (Sim.Time.t -> Ethernet.frame -> unit) -> unit
(** Physical-layer tap: observes every frame offered to the link (both
    directions, including frames later lost), at transmission time.
    One tap per link; a later call replaces the earlier one. *)

val frames_dropped : t -> int
