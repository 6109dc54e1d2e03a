(** Simulation event trace.

    A lightweight log of what happened and when, stored in a growable
    circular buffer ([Obs.Ring]). With a [capacity_hint] the trace
    retains only the newest entries — large experiments can keep
    tracing on without accumulating millions of entries — while
    [total] still counts every emission. Components emit one-line
    events tagged with a category ("bgp", "bfd", "fib", "openflow",
    ...) and, optionally, structured [Obs.Field] key/value pairs;
    experiments and tests inspect the trace to assert ordering
    properties, and the examples print it. *)

type entry = {
  time : Time.t;
  category : string;
  message : string;
  fields : Obs.Field.t list;
}

type t

val create : ?capacity_hint:int -> unit -> t
(** [capacity_hint] caps retention: once full, the oldest entries are
    overwritten. Without it the trace grows unboundedly. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** Disabling makes [emit] a no-op; large experiments run with tracing
    off to avoid accumulating millions of entries. *)

val emit : t -> Time.t -> category:string -> string -> unit

val event : t -> Time.t -> category:string -> string -> Obs.Field.t list -> unit
(** [event t now ~category name fields] records a structured entry:
    [name] becomes the message, [fields] are kept typed for consumers
    that match on values rather than text. *)

val emitf :
  t -> Time.t -> category:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Formatted emission. The message is only built when the trace is
    enabled; when it is not, the call still walks the format over its
    arguments, so call sites that run per update or per packet test
    {!enabled} first. *)

val entries : t -> entry list
(** Retained entries in emission order (oldest first). *)

val find : t -> category:string -> entry list
(** Retained entries of one category, in emission order. *)

val length : t -> int
(** Retained entries. *)

val total : t -> int
(** Entries ever emitted, including any the ring has dropped. *)

val dropped : t -> int
(** Entries lost to the capacity cap. *)

val capacity : t -> int option

val clear : t -> unit

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
