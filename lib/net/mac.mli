(** 48-bit Ethernet MAC addresses.

    An address is an immediate [int] holding the 48-bit value, so it
    needs no heap block and [compare] is plain integer order. *)

type t

val of_int64 : int64 -> t
(** Keeps only the low 48 bits. *)

val to_int64 : t -> int64
(** The address in the low 48 bits, so never negative. *)

val of_bytes : int array -> t
(** [of_bytes [|b0; ...; b5|]] with [b0] the most significant byte.
    Requires exactly 6 values in [0, 255]. *)

val to_bytes : t -> int array

val of_string : string -> (t, string) result
(** Parses colon-separated hex, e.g. ["00:ff:00:00:00:01"]. *)

val of_string_exn : string -> t

val to_string : t -> string

val broadcast : t
(** [ff:ff:ff:ff:ff:ff] *)

val zero : t

val is_broadcast : t -> bool

val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** The 48-bit value itself, which is also the hash of its [int64]
    form masked with [max_int]. *)

val pp : Format.formatter -> t -> unit
