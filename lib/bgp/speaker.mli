(** A multi-session BGP speaker.

    Thin composition layer used by all three BGP-speaking roles in the
    system — the provider routers (R2, R3) originating feeds, the
    supercharged router's control plane, and the supercharger controller
    interposed between them. It owns the sessions, assigns dense peer
    ids, and funnels events to per-speaker callbacks with the peer
    context attached. *)

type t

type peer = {
  id : int;  (** dense, assigned in [add_peer] order from 0 *)
  peer_name : string;
  session : Session.t;
}

val create :
  Sim.Engine.t ->
  name:string ->
  asn:Asn.t ->
  router_id:Net.Ipv4.t ->
  unit ->
  t

val name : t -> string
val asn : t -> Asn.t
val router_id : t -> Net.Ipv4.t

val add_peer :
  t ->
  name:string ->
  channel:Channel.t ->
  side:Channel.side ->
  peer
(** Creates the session on our side of [channel], with
    {!Session.create}'s 90 s hold time. Call before {!start}. *)

val peers : t -> peer list
(** In id order. *)

val start : t -> unit
(** Starts every session. *)

val on_update : t -> (peer -> Message.update -> unit) -> unit
val on_peer_established : t -> (peer -> unit) -> unit
val on_peer_down : t -> (peer -> Session.down_reason -> unit) -> unit

val send_update : t -> peer_id:int -> Message.update -> unit
(** @raise Invalid_argument if that session is not established. *)

val established_count : t -> int
