(** Internet-scale RIB differential checker.

    Where {!Run} proves the whole supercharged pipeline forwards like
    the flat-FIB {!Oracle} on small topologies, this harness proves the
    {e control-plane data structure} — the sharded, incrementally
    re-ranked {!Bgp.Rib} — ranks exactly like the naive decision
    process at 10^5..10^6 prefixes. Both sides consume the same
    workload-generated feeds: skewed per-peer views of one
    {!Workloads.Rib_gen.generate_internet} table, route-collector-shaped
    withdrawal storms and churn trains, session losses and recoveries.

    After the initial load and after {e every} scheduled event, the
    checker demands full ranked equivalence: for each prefix the oracle
    stores, the RIB's incrementally maintained candidate order must
    equal a from-scratch {!Bgp.Decision.rank} of the oracle's alive
    candidates ({!Bgp.Decision.compare} is a total order, so the ranked
    list is unique), and covered-prefix counts must agree exactly.
    Every RIB optimisation — sharding, splice-only re-ranking, indexed
    peer withdrawal — lands gated behind this harness. *)

type event =
  | Storm of { peer : int; share_pct : int }
      (** Session-reset flush: the peer withdraws a deterministic
          [share_pct]-percent slice of its view in table order. *)
  | Readvertise of { peer : int }
      (** Full-view re-announcement — identical routes must vanish into
          the RIB's [Unchanged] suppression. *)
  | Churn of { sub_seed : int64; events : int }
      (** A route-collector update train (bursty, ~20 % withdrawals).
          The sub-seed travels in the event, so shrinking neighbours
          never shifts its draws. *)
  | Peer_down of int
      (** Oracle masks; RIB deletes via {!Bgp.Rib.withdraw_peer}. *)
  | Peer_up of int
      (** Oracle unmasks; the RIB side re-announces the peer's ground
          truth from {!Oracle.peer_routes}. *)

type t = {
  seed : int64;
  n_peers : int;
  steps : event list;
}

val length : t -> int
val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit

val generate : seed:int64 -> ?n_peers:int -> ?length:int -> unit -> t
(** Deterministic schedule of [length] events (default 10) over
    [n_peers] peers (default 12, at most 51 200: the peers' addresses
    are 10.9.0.1-10.9.255.200). Every generated schedule contains at
    least one [Storm] — one is appended when the draw produced none. *)

val execute : entries:Workloads.Rib_gen.entry array -> t -> string list
(** Preloads every peer's skewed view of [entries] into both sides,
    then interprets the schedule, checking full ranked equivalence
    after the load and after every event; stops at the first divergence.
    [[]] is a clean pass. Deterministic: same entries and schedule always
    return the same result. The interpreter is total — events
    aimed at down or already-up peers are silently absorbed, exactly as
    a silent or already-recovered session would be. *)

val run_matrix :
  ?n_peers:int ->
  ?length:int ->
  ?entries:int ->
  ?progress:(int -> unit) ->
  seed:int64 ->
  schedules:int ->
  unit ->
  t Harness.failure option
(** Generates one internet-shape table of [entries] prefixes (default
    20 000) from [seed], then runs {!Harness.run_matrix} over
    [schedules] schedules from consecutive seeds [seed], [seed+1], ….
    [None] means the incremental RIB matched the naive model on every
    schedule. The table depends on [seed], so the [reproduce] line
    replays the matrix up to the failing schedule. Rejects [n_peers]
    outside {!generate}'s range before building the table. *)
