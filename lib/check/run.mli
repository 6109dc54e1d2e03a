(** The differential-checker driver: executes {!Schedule}s against a
    full supercharged rig and the flat-FIB {!Oracle} side by side.

    {!execute} builds a fresh deterministic rig from the schedule's seed
    — the {!Experiments.Lab} Fig. 4 lab with one controller replica and
    the lab's recording R1, plus a fault injector on every message path
    — interprets each event against both the real pipeline and the
    oracle, evaluates
    {!Invariants.transient} after every event, and
    {!Invariants.at_quiescence} at periodic checkpoints and at the end,
    after driving the simulation to a quiescent point.

    Quiescence is {e detected}, never slept for: the controller's
    {!Supercharger.Controller.quiescent} predicate, conjoined with
    {!Openflow.Switch.idle}, per-peer agreement between BFD state and
    the actual link state, and stability of an activity snapshot
    (flow-mods sent/applied, announcements, failovers, degradations,
    router-bound updates) over consecutive 25 ms slices. Periodic BFD
    and keepalive traffic never stops, so engine-queue emptiness can
    never serve as the criterion. *)

val execute : ?mutate:bool -> Schedule.t -> string list
(** Runs one schedule; returns the invariant violations, [[]] on a clean
    pass. [mutate] arms {!Supercharger.Provisioner.mutate_skip_rewrite},
    the deliberate Listing 2 bug the checker must catch. Deterministic:
    the same schedule and flag always return the same result. *)

val run_matrix :
  ?n_peers:int ->
  ?n_prefixes:int ->
  ?events:int ->
  ?chaos:bool ->
  ?mutate:bool ->
  ?progress:(int -> unit) ->
  seed:int64 ->
  schedules:int ->
  unit ->
  Schedule.t Harness.failure option
(** {!Harness.run_matrix} over [schedules] schedules from consecutive
    seeds [seed], [seed+1], … — defaults as in {!Schedule.generate}.
    The [reproduce] line replays the failing schedule alone
    ([sc_lab check --seed <its seed> --schedules 1 ...]). *)
