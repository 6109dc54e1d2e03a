(** Routing information base.

    Stores, per prefix, every candidate learned from every peer, kept
    ranked by {!Decision.compare} (best first). This is the
    "routing_table" of the paper's Listing 1: the first two elements of
    the ranked list form the prefix's backup-group. Each peer contributes
    at most one route per prefix; a re-announcement implicitly replaces
    the previous one.

    Storage is sharded by mask length — 33 tables, one per /0../32 —
    so an update hashes and (on resize) rehashes only among prefixes of
    its own length, and per-length occupancy ({!length_histogram}) is
    readable in O(1) per shard. At full-Internet scale this keeps the
    dominant /24 band's resizes from churning the thin aggregate bands
    and shortens every probe chain to same-length prefixes.

    Each stored prefix holds a dense slot id, handed out when its first
    candidate arrives and recycled when its last one goes; the shards
    map prefix to slot and the ranked candidates live in a slot-indexed
    array. The per-peer prefix index is one membership bitmap over
    slots per peer, plus a count: an announce or withdraw flips one bit,
    with no prefix hashing, and allocates only when a bitmap grows. A
    whole-session loss ({!withdraw_peer}) walks the failed peer's bitmap
    and re-ranks only the prefixes the peer actually routed. The decision process is
    incremental by construction: an update re-ranks only the touched
    prefix's candidate splice, and {!candidate_visits} counts the
    list nodes those splices inspect so tests and benches can pin the
    bound. *)

type t

val create : unit -> t

type change = {
  prefix : Net.Prefix.t;
  before : Route.t list;  (** ranked candidates before the event *)
  after : Route.t list;  (** ranked candidates after the event *)
}

val announce : t -> Net.Prefix.t -> Route.t -> change option
(** Inserts/replaces the route from [route.peer_id] for the prefix.
    [None] when the peer re-announces a route identical to its stored
    one: the table is untouched and no change record is allocated, so
    phantom churn never reaches Listing 1 or the trace/metrics layer. *)

val withdraw : t -> Net.Prefix.t -> peer_id:int -> change option
(** Removes the peer's route; [None] if it held none. *)

val withdraw_peer : t -> peer_id:int -> change list
(** Removes every route of a peer (session loss). Only prefixes whose
    candidate list actually changed are reported, in ascending prefix
    order. For a peer holding k prefixes in a table of N the cost is
    O(k log k) for the sort plus a word-at-a-time walk of the peer's
    bitmap, at most N/64 words (about 16k words at 1M prefixes), which
    stops once all k bits are found. Candidate lists are walked only
    for the peer's own k prefixes.

    A peer the table has never heard from — or one already fully
    withdrawn — is a no-op returning [[]]. Callers rely on this: a BFD
    flap can race the slow path into issuing a second withdrawal for
    the same session, and the duplicate must not raise or fabricate
    change records. *)

val peer_prefix_count : t -> peer_id:int -> int
(** Number of prefixes the peer currently has a candidate for. O(1). *)

val peer_prefixes : t -> peer_id:int -> Net.Prefix.t list
(** The indexed prefix set of a peer, in ascending prefix order
    ({!Net.Prefix.compare}), whatever the order the slots were handed
    out in. Costs what {!withdraw_peer}'s walk and sort cost. *)

val apply_update : t -> peer_id:int -> peer_router_id:Net.Ipv4.t ->
  ?ebgp:bool -> ?igp_cost:int -> Message.update -> change list
(** Applies a BGP UPDATE from a peer: withdrawals first, then
    announcements. Returns one change per affected prefix. *)

val ordered : t -> Net.Prefix.t -> Route.t list
(** Ranked candidates, best first; [] when the prefix is unknown. *)

val best : t -> Net.Prefix.t -> Route.t option

val cardinal : t -> int
(** Number of prefixes with at least one candidate. *)

val length_histogram : t -> int array
(** 33 cells: prefixes currently stored per mask length — the shard
    occupancy, in the same shape as the workload generators'
    prefix-length distributions. *)

val candidate_visits : t -> int
(** Monotonic count of candidate-list nodes inspected by the
    announce/withdraw splice walks since {!create}. A peer-down must
    grow this by O(candidates over the failed peer's own prefixes) —
    the regression tests assert it never approaches table size. *)

val iter : t -> (Net.Prefix.t -> Route.t list -> unit) -> unit
(** Visits every prefix with its ranked candidates (unspecified
    order). *)

val fold : t -> init:'b -> f:('b -> Net.Prefix.t -> Route.t list -> 'b) -> 'b
