(** The flat-FIB oracle: a deliberately naive model of a legacy
    single-device BGP router.

    It consumes the same event stream as the supercharged pipeline but
    skips everything the paper adds — no virtual next hops, no VMACs, no
    switch, no backup-groups, no asynchronous convergence. Per prefix it
    stores every candidate route and answers lookups with the best path
    straight from the BGP decision process over the currently-alive
    peers, resolved to the peer's physical MAC and egress port.

    Because the model converges instantaneously by construction, its
    answers define ground truth at every quiescent point of the real
    pipeline: wherever the oracle forwards a prefix, the router-FIB →
    switch-pipeline composition must forward it too (differential
    forwarding equivalence).

    A peer failure {e masks} its routes rather than deleting them —
    equivalent to the real system's withdraw-then-re-announce protocol
    at quiescence, because the checker's interpreter re-announces the
    peer's ground-truth routes after recovery. *)

type hop = {
  nh : Net.Ipv4.t;  (** physical next hop (the peer's address) *)
  mac : Net.Mac.t;  (** its MAC — what the last rewrite must leave *)
  port : int;  (** its switch egress port *)
}

val pp_hop : Format.formatter -> hop -> unit

type t

val create : unit -> t

val declare_peer : t -> id:int -> ip:Net.Ipv4.t -> mac:Net.Mac.t -> port:int -> unit
(** Registers a peer's data-plane coordinates. [id] must match the
    speaker-side peer id (dense, in add order) so the decision-process
    tie-break ranks identically on both sides. *)

val announce : t -> peer:int -> Net.Prefix.t -> Bgp.Attributes.t -> unit
(** The peer's current route for the prefix (replaces any previous
    one). @raise Invalid_argument for an undeclared peer. *)

val withdraw : t -> peer:int -> Net.Prefix.t -> unit
(** Removes the peer's route; no-op if it held none. *)

val peer_down : t -> int -> unit
val peer_up : t -> int -> unit
val alive : t -> int -> bool

val candidates : t -> Net.Prefix.t -> Bgp.Route.t list
(** Every candidate from currently-alive peers, unranked — the
    decision-process input the differential checker re-ranks naively to
    compare against the incremental RIB's stored order. *)

val peer_routes : t -> peer:int -> (Net.Prefix.t * Bgp.Attributes.t) list
(** The peer's stored routes (masked or not), in ascending prefix
    order — what a recovered session re-announces.
    @raise Invalid_argument for an undeclared peer. *)

val iter_stored : t -> (Net.Prefix.t -> Bgp.Route.t list -> unit) -> unit
(** Visits every prefix with at least one {e stored} candidate, masked
    peers included (unspecified order). The million-prefix sweep uses
    this instead of the allocating, sorting {!prefixes}. *)

val covered : t -> int
(** Number of covered prefixes, without building {!prefixes}'s sorted
    list — O(stored prefixes). *)

val lookup : t -> Net.Prefix.t -> hop option
(** Where the legacy router would forward the prefix right now; [None]
    when no alive peer routes it. *)

val prefixes : t -> Net.Prefix.t list
(** Covered prefixes — those with at least one alive candidate — in
    ascending order. *)

val cardinal : t -> int
(** [List.length (prefixes t)]. *)
