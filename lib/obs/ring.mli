(** Growable circular buffer.

    Unbounded rings grow geometrically like a vector; capped rings
    ([capacity]) grow up to the cap and then overwrite the oldest
    element. Push is O(1) amortised; [to_list] is O(retained). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] bounds the number of retained elements; omitted means
    unbounded. A non-positive capacity is treated as [1]. *)

val push : 'a t -> 'a -> unit

val length : 'a t -> int
(** Elements currently retained. *)

val total : 'a t -> int
(** Elements ever pushed (retained + dropped). *)

val dropped : 'a t -> int
(** Elements overwritten because the ring was at capacity. *)

val capacity : 'a t -> int option

val to_list : 'a t -> 'a list
(** Retained elements, oldest first. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest first. *)

val clear : 'a t -> unit
(** Drops every element and resets [total]/[dropped]. *)
