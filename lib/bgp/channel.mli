(** Reliable, ordered control channel between two BGP speakers.

    Stands in for the TCP connection of a real session: structured
    messages are delivered after a configurable one-way delay, in order,
    until the channel is broken. With [use_codec:true] every message is
    round-tripped through the RFC 4271 binary codec in transit, so the
    wire format is exercised end-to-end (the integration tests run this
    way).

    Messages due at one side at one instant share one engine event
    (without [fragment]): a send joins the channel's newest batch when
    that batch goes to the same side at the same instant and is still
    the engine's latest event ({!Sim.Engine.is_latest}), which runs the
    message exactly where an event of its own would have run. Delivery
    order, {!messages_delivered} and every fault decision are those of
    one event per message; only the engine's counts change, so
    {!Sim.Engine.pending} and {!Sim.Engine.events_processed} count
    batches, not messages. *)

type side = A | B

val flip : side -> side

type t

val create :
  Sim.Engine.t ->
  ?name:string ->
  ?delay:Sim.Time.t ->
  ?use_codec:bool ->
  ?fragment:int ->
  unit ->
  t
(** Defaults: [delay] 200 µs (same-rack RTT/2), [use_codec] false.
    [fragment] (requires [use_codec]) delivers the encoded bytes in
    TCP-segment-like chunks of at most that many bytes, reassembled on
    the receiving side with {!Stream} — message boundaries no longer
    align with deliveries, exactly as on a real socket. *)

val name : t -> string

val attach : t -> side -> (Message.t -> unit) -> unit
(** Receive callback for the speaker plugged into [side]. *)

val set_faults : t -> Sim.Faults.t -> unit
(** Routes every subsequent {!send} through the fault injector: a
    [Drop] verdict silently discards the message, extra delays are
    added to the channel's own latency (delayed messages are overtaken
    by later ones — reordering), and duplicate copies are delivered
    separately. On a fragmented channel the verdict applies to the
    whole message and only drop/delay are honoured (the byte stream
    stands in for TCP, which hides segment-level duplication and never
    reorders); a FIFO floor keeps delayed streams ordered. *)

val on_break : t -> side -> (unit -> unit) -> unit
(** Called (once) on each side when the channel breaks. *)

val send : t -> side -> Message.t -> unit
(** Sends towards the other side. No-op on a broken channel.
    @raise Invalid_argument if [use_codec] is set and the message fails
    to round-trip (a codec bug — surfaced loudly). *)

val break : t -> unit
(** Tears the channel down: in-flight messages are lost and both break
    callbacks fire after the propagation delay. Idempotent. *)

val is_broken : t -> bool

val messages_delivered : t -> int
