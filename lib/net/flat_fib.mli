(** Flat longest-prefix-match table for the forwarding hot path.

    A stride-compressed (16/8/8) multibit table in the DIR-24-8 spirit:
    a lookup is at most three array indexings, against up to 32
    dependent pointer loads for the {!Lpm} trie. Prefixes are expanded
    into every slot they cover at insert time, so {!lookup_value}
    performs no masking, allocates nothing, and returns the ['a option]
    stored when the binding was made.

    The trade: inserts and removals pay the expansion (up to 65536 slot
    writes for a /0), and each table holds ~1.1 MiB of root arrays.
    That is the right trade for a FIB, read-dominated by orders of
    magnitude.

    The update side keeps only what lookups and updates need. The
    authoritative binding set is a prefix-keyed hashtable, not a trie.
    A removal vacates the slots the prefix owned and refills them all
    with one replacement: the longest shorter prefix, within the
    level's length band, covering the removed network, found by at
    most one hashtable probe per length. Level-1 nodes share one
    all-zero child array per table until they first need a level-2
    child; level-2 nodes never get their own. *)

type 'a t

val create : unit -> 'a t

val insert : 'a t -> Prefix.t -> 'a -> unit
(** Binds the prefix, replacing any previous binding. Cost is
    proportional to the expanded slot range within one level (at most
    65536 for a /0, at most 256 otherwise). *)

val remove : 'a t -> Prefix.t -> unit
(** Removes the exact prefix; no-op if absent. Vacated slots fall back
    to the next-longest covering prefix. *)

val find_exact : 'a t -> Prefix.t -> 'a option
(** Exact-prefix lookup (not longest-match). *)

val lookup_value : 'a t -> Ipv4.t -> 'a option
(** Longest-prefix match, zero-allocation fast path: returns the stored
    option itself — no closure, no tuple, no prefix reconstruction. *)

val lookup : 'a t -> Ipv4.t -> (Prefix.t * 'a) option
(** Longest-prefix match returning the winning prefix, reconstructed
    from the slot's stored length. Interface-compatible with
    {!Lpm.lookup}; not for the per-packet path. *)

val lookup_batch : 'a t -> Ipv4.t array -> 'a option array -> unit
(** [lookup_batch t addrs out] writes [lookup_value t addrs.(i)] into
    [out.(i)] for every input — the zero-alloc batch primitive under
    batched forwarding. @raise Invalid_argument if [out] is shorter
    than [addrs]. *)

val cardinal : 'a t -> int
(** Number of bound prefixes. *)

val is_empty : 'a t -> bool

val iter : 'a t -> (Prefix.t -> 'a -> unit) -> unit
(** Visits bindings in {!Prefix.compare} order (unsigned network, then
    length): the same order as {!Lpm.iter}. Sorts the bindings first,
    so it is not for a hot path. *)

val fold : 'a t -> init:'b -> f:('b -> Prefix.t -> 'a -> 'b) -> 'b

val to_list : 'a t -> (Prefix.t * 'a) list
(** Bindings in {!Prefix.compare} order, as {!iter}. *)

val nodes : 'a t -> int
(** Live interior (level-1/level-2) nodes — exposed so tests can assert
    that removal churn recycles rather than leaks. *)

val clear : 'a t -> unit
