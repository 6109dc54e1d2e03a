(** Multi-node differential checking: seeded fault schedules against a
    full {!Topo.Fabric}, verified against the {!Topo_oracle} at
    quiescence.

    A schedule is a deterministic recipe over a fixed ring-with-chords
    topology (externs at the best-preference edge, the antipode, and a
    quarter-way router; a seed-drawn subset of routers supercharged).
    Its events are the multi-node fault vocabulary: single extern and
    link failures and recoveries, correlated srlg cuts (both conduit
    links at router 0 at once), and controller partitions that black
    out a router's iBGP {e and} management link for a window.

    After the schedule runs, the fabric is driven to detected
    quiescence and three invariant families are evaluated: every
    router's forwarding choice equals the oracle's ground-truth
    prediction; every (ingress, prefix) walk ends where the oracle
    says it must (no loops, no blackholes when delivery is possible);
    and — when the up-link graph is connected — every router's
    link-state database equals the controller's. *)

type event =
  | Extern_fail of int
  | Extern_recover of int
  | Link_down of int
  | Link_up of int
  | Srlg_fail of int
  | Srlg_recover of int
  | Partition of { routers : int list; span_ms : int }

type step = {
  ev : event;
  dwell_ms : int;  (** simulated time to let pass after the event *)
}

type t = {
  seed : int64;
  routers : int;
  supercharged : int list;
  n_prefixes : int;
  steps : step list;
}

val generate :
  seed:int64 -> ?routers:int -> ?n_prefixes:int -> ?length:int -> unit -> t
(** Draws a schedule from the seed (defaults: 8 routers, 6 prefixes, 14
    events). Router 0 — host of the best egress — is always
    supercharged so the fast-failover path is always in play. Requires
    [routers >= 6] (the chord mesh needs it). *)

val spec_of : t -> Topo.Spec.t
val length : t -> int
val prefix_of : int -> Net.Prefix.t

val pp : Format.formatter -> t -> unit
val pp_event : Format.formatter -> event -> unit

val execute : t -> string list
(** Runs one schedule; returns the invariant violations, [[]] on a
    clean pass. Deterministic: the same schedule always returns the
    same result. *)

type failure = {
  schedule : t;
  shrunk : t;
  violations : string list;
  reproduce : string;  (** the [sc_lab topo-check] command that replays it *)
}

val pp_failure : Format.formatter -> failure -> unit

val run_matrix :
  ?routers:int ->
  ?n_prefixes:int ->
  ?events:int ->
  ?progress:(int -> unit) ->
  seeds:int64 list ->
  unit ->
  failure option
(** Generates and executes one schedule per seed, stopping at the
    first failure with its shrunken counterexample. [None] means every
    schedule passed. *)
