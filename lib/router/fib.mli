(** The flat hardware FIB with its serialized update engine.

    This module is the villain of the paper: lookups are fast, but
    updates are applied {e one entry at a time} by a single update
    engine, so rerouting k prefixes costs
    [batch_start_latency + k × per_entry_latency]. The defaults are
    calibrated from the paper's Cisco Nexus 7k measurements: a batch
    takes ≈280 ms of software preparation before the first entry lands,
    then ≈281 µs per entry (512 k entries ≈ 2.4 min, Fig. 5). *)

type op =
  | Set of Net.Prefix.t * Adjacency.t
  | Remove of Net.Prefix.t

val pp_op : Format.formatter -> op -> unit

type t

val create :
  Sim.Engine.t ->
  ?name:string ->
  ?batch_start_latency:Sim.Time.t ->
  ?per_entry_latency:Sim.Time.t ->
  unit ->
  t
(** Defaults: [batch_start_latency] 280 ms, [per_entry_latency]
    {!default_per_entry_latency}. *)

val default_per_entry_latency : Sim.Time.t
(** 281 µs, the Nexus 7k's time per FIB entry. *)

val enqueue : t -> op -> unit
(** Appends to the update queue. If the engine is idle a new batch
    begins: the first entry is applied [batch_start + per_entry] from
    now, subsequent queued entries every [per_entry]. *)

val enqueue_batch : t -> op list -> unit
(** Appends a burst (e.g. a peer-down's whole change set) as one
    download batch: a single batch-start latency covers all entries.
    [enqueue_batch t []] is a no-op. *)

val lookup : t -> Net.Ipv4.t -> Adjacency.t option
(** Longest-prefix match against the {e applied} table — pending queued
    updates are invisible to the data plane, which is exactly the
    convergence gap being measured. Runs on {!Net.Flat_fib}, so the
    per-packet cost is a few array reads and no allocation. *)

val lookup_batch : t -> Net.Ipv4.t array -> Adjacency.t option array -> unit
(** [lookup_batch t addrs out] resolves a burst in one pass, writing
    [lookup t addrs.(i)] into [out.(i)].
    @raise Invalid_argument if [out] is shorter than [addrs]. *)

val on_applied : t -> (op -> unit) -> unit
(** Observer invoked after each entry is written; the traffic monitor's
    event-driven mode keys its re-probes on this. *)

val size : t -> int
(** Entries currently installed. *)

val pending : t -> int
(** Depth of the update queue. *)

val applied_count : t -> int
(** Total operations applied since creation. *)

val is_busy : t -> bool

val entries : t -> (Net.Prefix.t * Adjacency.t) list
(** Snapshot of the applied table (trie order). *)
