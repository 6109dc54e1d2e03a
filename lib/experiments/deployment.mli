(** The partial-deployment sweep: how much of the supercharged
    convergence win survives when only a fraction of the fabric's
    routers are supercharged (the paper's incremental-deployment
    argument, §5).

    A ring-with-chords topology carries three external peers (best
    LOCAL_PREF at router 0, fallbacks at the antipode and quarter-way).
    For each coverage level the first [k] routers of the deployment
    order — egress hosts first, then by index — are supercharged, a
    fault scenario is injected, and per-flow outage is sampled from the
    ground-truth forwarding walk.

    Scenarios: the best egress dying ([extern-fail], remote repair on
    every other router), a correlated conduit cut ([srlg], both ring
    links at router 0), and a controller partition overlapping the
    egress failure ([partition], repair gated on the heal resync). *)

type scenario =
  | Extern_fail
  | Srlg_cut
  | Partition

type point = {
  n_supercharged : int;
  supercharged : int list;  (** the deployed routers *)
  pct : float;  (** coverage, 0–100 *)
  mean_outage_ms : float;  (** across all probe flows *)
  max_outage_ms : float;
  win_pct : float option;
      (** share of the full-deployment improvement realised:
          [(plain - this) / (plain - full) * 100]; [None] when plain
          and full deployment are indistinguishable (< 0.5 ms apart) *)
}

type row = {
  scenario : scenario;
  seed : int64;
  routers : int;
  prefixes : int;
  points : point list;  (** in increasing coverage order *)
}

val default_seeds : int64 list

val run :
  ?routers:int ->
  ?n_prefixes:int ->
  ?probes:int ->
  ?coverage:int list ->
  ?seeds:int64 list ->
  ?scenarios:scenario list ->
  ?window:Sim.Time.t ->
  ?progress:(string -> unit) ->
  unit ->
  row list
(** Defaults: 8 routers, 200 prefixes, 6 probe prefixes, every coverage
    level 0‥routers, seeds [11;12;13], all scenarios, a 2 s measurement
    window sampled every 5 ms. Raises [Invalid_argument] for a coverage
    level outside 0‥routers. *)

val to_json : row list -> Obs.Json.t
(** One flat object per (scenario, seed, coverage) point. *)

val pp_table : Format.formatter -> row list -> unit
val to_csv : row list -> string
