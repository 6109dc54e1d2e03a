(** Metrics registry: counters, gauges and histograms by dotted name.

    A registry is cheap to create; simulations make one per engine so
    runs never share state, while ad-hoc tools can use the process-wide
    [default]. [counter]/[gauge]/[histogram] are get-or-create and
    return a handle whose hot-path update is a single mutation — no
    hashing per increment. Names are conventionally dotted
    ("controller.updates_processed"); [Scope] prepends a component
    prefix. *)

type t

type counter
type gauge

val create : unit -> t

val default : t
(** Process-wide registry for code without an engine at hand. *)

val counter : t -> string -> counter
val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val add : gauge -> float -> unit

val histogram : t -> string -> Histogram.t
(** Get-or-create, with {!Histogram.create}'s default buckets. *)

val find_counter : t -> string -> int option
val find_gauge : t -> string -> float option
val find_histogram : t -> string -> Histogram.t option

module Scope : sig
  type registry := t
  type t

  val v : registry -> string -> t
  (** [v registry "switch"] names metrics "switch.<name>". *)

  val counter : t -> string -> counter
  val gauge : t -> string -> gauge

  val histogram : t -> string -> Histogram.t
end

val to_json : t -> Json.t
(** [{"counters":{...},"gauges":{...},"histograms":{...}}] with names
    sorted, so snapshots diff cleanly. *)

val pp : Format.formatter -> t -> unit
(** One metric per line, names sorted. *)
