(** The one checker driver: the seed loop, shrink-and-replay step and
    failure report that {!Run}, {!Ribscale} and {!Topo_run} share.

    Each checker keeps its own generator, interpreter and invariants and
    hands them in as functions; the harness only decides which schedules
    run, shrinks the first failing one with {!Shrink.list}, and packages
    the result. *)

type 'sched failure = {
  schedule : 'sched;  (** the schedule that first failed *)
  shrunk : 'sched;  (** its shrunken counterexample *)
  violations : string list;  (** violations of [shrunk] *)
  reproduce : string;  (** the [sc_lab] command that replays it *)
}

val pp_failure :
  pp:(Format.formatter -> 'sched -> unit) ->
  length:('sched -> int) ->
  Format.formatter ->
  'sched failure ->
  unit
(** Prints the failing schedule, the shrunken one (["shrunk to N
    events"]), its violations and the [reproduce:] line. *)

val run_matrix :
  schedules:int ->
  generate:(int -> 'sched) ->
  execute:('sched -> string list) ->
  steps:('sched -> 'step list) ->
  with_steps:('sched -> 'step list -> 'sched) ->
  reproduce:(int -> 'sched -> string) ->
  progress:(int -> unit) ->
  'sched failure option
(** For each 0-based index [i] below [schedules]: calls [progress i],
    generates schedule [i] and executes it, stopping at the first one
    with violations. That schedule's steps are shrunk with {!Shrink.list}
    (re-executing every candidate), the shrunken schedule is executed
    once more for its violations, and [reproduce i schedule] names the
    command that replays it. [None] means every schedule passed.
    [execute] must be deterministic. *)
