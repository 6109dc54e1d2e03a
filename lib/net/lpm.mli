(** Longest-prefix-match table.

    A mutable binary trie from IPv4 prefixes to values. Inserting or
    removing is O(prefix length); lookup is O(32) node hops and
    allocates a tuple per hit. The forwarding hot paths now run on
    {!Flat_fib} (a stride-compressed multibit table); this trie remains
    the simple, obviously-correct reference that the flat structure is
    checked against, by the qcheck properties and by the dataplane
    benchmark's output check. *)

type 'a t

val create : unit -> 'a t

val insert : 'a t -> Prefix.t -> 'a -> unit
(** Binds the prefix, replacing any previous binding. *)

val remove : 'a t -> Prefix.t -> unit
(** Removes the exact prefix; no-op if absent. *)

val find_exact : 'a t -> Prefix.t -> 'a option
(** Exact-prefix lookup (not longest-match). *)

val lookup : 'a t -> Ipv4.t -> (Prefix.t * 'a) option
(** Longest-prefix match for an address. *)

val cardinal : 'a t -> int
(** Number of bound prefixes. *)

val is_empty : 'a t -> bool

val iter : 'a t -> (Prefix.t -> 'a -> unit) -> unit
(** Visits bindings in trie (lexicographic bit-string) order. *)

val fold : 'a t -> init:'b -> f:('b -> Prefix.t -> 'a -> 'b) -> 'b

val to_list : 'a t -> (Prefix.t * 'a) list
(** Bindings in trie order. *)

val clear : 'a t -> unit
