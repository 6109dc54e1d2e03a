(** ARP resolution cache with pending-request queueing.

    [resolve] answers synchronously on a hit; on a miss it emits an ARP
    request through the owner-supplied transmit function and queues the
    continuation. Requests are retried on a timer and deduplicated per
    target, so a thousand prefixes pointing at a fresh virtual next-hop
    trigger exactly one ARP exchange — the behaviour the supercharger's
    provisioning relies on. *)

type t

val create :
  Sim.Engine.t ->
  ?name:string ->
  ?retry_interval:Sim.Time.t ->
  ?max_retries:int ->
  send_request:(interface:int -> target:Net.Ipv4.t -> unit) ->
  unit ->
  t
(** Defaults: retry every 1 s, give up after 4 tries (pending callbacks
    are dropped and a trace line is emitted). *)

val resolve : t -> interface:int -> Net.Ipv4.t -> (Net.Mac.t -> unit) -> unit

val learn : t -> Net.Ipv4.t -> Net.Mac.t -> unit
(** Feed a (reply or gratuitously observed) binding; fires pending
    resolutions for that address in FIFO order. A changed binding
    overwrites the cached one. *)

val lookup : t -> Net.Ipv4.t -> Net.Mac.t option

val pending_count : t -> int
