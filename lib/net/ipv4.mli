(** IPv4 addresses.

    An address is an immediate [int] holding the unsigned 32-bit value,
    so it needs no heap block and [compare] is plain integer order. *)

type t

val of_int : int -> t
(** Keeps only the low 32 bits. *)

val to_int : t -> int
(** The address as an unsigned value: [0] to [0xFFFF_FFFF]. *)

val of_int32 : int32 -> t
(** Reads the [int32] as unsigned: [of_int32 (-1l)] is
    [255.255.255.255]. *)

val to_int32 : t -> int32
(** The wire form: addresses from [128.0.0.0] up come back negative. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is [a.b.c.d]. Each octet must be in [0, 255]. *)

val to_octets : t -> int * int * int * int

val of_string : string -> (t, string) result
(** Parses dotted-quad notation. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val any : t
(** [0.0.0.0] *)

val broadcast : t
(** [255.255.255.255] *)

val succ : t -> t
(** Next address, wrapping at [255.255.255.255]. *)

val add : t -> int -> t
(** [add a n] is the address [n] after [a] (unsigned, wrapping). *)

val diff : t -> t -> int
(** [diff a b] is the unsigned distance [a - b] interpreted in [int]. *)

val compare : t -> t -> int
(** Unsigned comparison: [0.0.0.1 < 128.0.0.0 < 255.255.255.255]. *)

val equal : t -> t -> bool

val hash : t -> int
(** The hash of the address's [int32] form: bit 31 sign-extended, then
    masked with [max_int]. It fixes the bucket layout, and so the
    iteration order, of every table keyed on addresses (DESIGN §18). *)

val bit : t -> int -> bool
(** [bit a i] is bit [i] of [a], where bit 0 is the most significant.
    Requires [0 <= i < 32]. *)

val pp : Format.formatter -> t -> unit
