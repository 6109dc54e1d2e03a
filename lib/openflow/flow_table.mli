(** Priority flow table with OpenFlow 1.0 flow-mod semantics. *)

type entry = {
  priority : int;
  ofmatch : Ofmatch.t;
  actions : Action.t list;
  cookie : int64;
  mutable packets : int;  (** match counter *)
}

type command =
  | Add
      (** insert; replaces an entry with identical match and priority *)
  | Modify
      (** update actions of all entries the given match {e subsumes}
          (OF 1.0 non-strict semantics) *)
  | Modify_strict  (** exact match and priority *)
  | Delete
      (** remove all entries the given match subsumes; [Ofmatch.any]
          deletes everything *)
  | Delete_strict

type flow_mod = {
  command : command;
  fm_priority : int;
  fm_match : Ofmatch.t;
  fm_actions : Action.t list;
  fm_cookie : int64;
}

val flow_mod :
  ?cookie:int64 -> ?priority:int -> command -> Ofmatch.t -> Action.t list ->
  flow_mod
(** Default [priority] 100, [cookie] 0. *)

type t

val create : unit -> t

val apply : t -> flow_mod -> unit
(** Executes the flow-mod against the table (no latency — timing lives
    in {!Switch}). [Modify]/[Modify_strict] on a non-existent flow
    behaves like [Add], per OF 1.0. *)

val lookup : t -> Ofmatch.context -> entry option
(** Highest-priority matching entry; among equal priorities, the one
    installed earliest. Increments the entry's packet counter. *)

val peek : t -> Ofmatch.context -> entry option
(** Same selection as {!lookup} but touches no counters — the probe the
    differential checker uses to resolve a hypothetical packet without
    perturbing switch statistics. *)

val lookup_batch : t -> Ofmatch.context array -> entry option array -> unit
(** [lookup_batch t ctxs out] is pointwise {!lookup} over the burst,
    writing [out.(i)] for [ctxs.(i)]: the priority-bucket walk is set
    up once for the whole batch (the only allocation) and the
    table-level counter bumped once by the batch size. Per-entry packet
    counters advance exactly as under sequential {!lookup}. The output
    array is caller-owned — allocate once, reuse across bursts. The
    returned [Some] cells are shared with the table (allocated at
    install time), so the per-packet loop allocates nothing; enforced
    by [hot-path-alloc]. Raises [Invalid_argument] if [out] is shorter
    than [ctxs]. *)

val peek_batch : t -> Ofmatch.context array -> entry option array -> unit
(** Counter-free variant of {!lookup_batch}; pointwise {!peek}. *)

type snapshot
(** The per-burst scan state: the live priority buckets resolved once.
    A snapshot is coherent until the next flow-mod; batch callers build
    one per burst ({!Switch.resolve_batch} does). *)

val snapshot : t -> snapshot
(** The one amortized per-burst allocation behind the batch lookups. *)

val snapshot_peek : snapshot -> Ofmatch.context -> entry option
(** One counter-free lookup against a prepared snapshot; allocation-free
    (the [Some] is the stored install-time cell). *)

val entries : t -> entry list
(** Priority-descending (lookup) order. *)

val size : t -> int

val lookups : t -> int
(** Total [lookup] calls since creation (hits and misses). *)

val pp : Format.formatter -> t -> unit
