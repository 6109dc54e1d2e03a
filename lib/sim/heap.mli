(** Mutable binary min-heap over [int] keys.

    The event queue of the simulation engine, keyed by nanoseconds, and
    the frontier of {!Igp.Spf}, keyed by distance. Among entries with
    equal keys, the one pushed first pops first (FIFO), which the engine
    relies on for deterministic scheduling of simultaneous events.

    Keys and push order live in [int] arrays and values in a slab of
    reusable slots, so {!push} and {!pop} allocate nothing outside
    growth and shrinking and call no comparison function. *)

type 'a t

val create : dummy:'a -> 'a t
(** [create ~dummy] is an empty heap. [dummy] fills empty value slots
    and is what {!pop} returns on an empty heap; it is never
    one of the pushed values unless the caller pushes it. *)

val push : 'a t -> int -> 'a -> unit
(** [push h key v] adds [v] under [key]. *)

val pop : 'a t -> 'a
(** Removes and returns the value with the least key (the oldest among
    equal keys), or [dummy] if the heap is empty. *)

val min_key : 'a t -> int
(** The least key.
    @raise Invalid_argument if the heap is empty. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Current backing-array length. Popping below a quarter of capacity
    shrinks the arrays; vacated slots never retain popped values. *)

val to_list : 'a t -> 'a list
(** Snapshot in heap-internal (not sorted) order; for tests and
    diagnostics. *)
