(** Discrete-event simulation engine.

    A single-threaded event loop over a virtual clock. Events scheduled
    for the same instant run in scheduling (FIFO) order, which makes every
    simulation deterministic given its seed — the property the paper's
    controller-replication argument (§3) depends on, and which the
    [Supercharger.Replica] tests exercise. *)

type t

type handle
(** A scheduled event, usable for cancellation. *)

val create : ?seed:int64 -> ?trace:Trace.t -> ?metrics:Obs.Metrics.t -> unit -> t
(** [create ()] is a fresh engine at time {!Time.zero}. [seed] (default
    [1L]) seeds the engine's root {!Rng}; [trace] (default a fresh enabled
    trace) receives component events; [metrics] (default a fresh registry)
    collects the run's counters, gauges and histograms. *)

val now : t -> Time.t

val rng : t -> Rng.t
(** The engine's root generator. Components should [Rng.split] it at
    set-up time rather than drawing from it during the run. *)

val trace : t -> Trace.t

val metrics : t -> Obs.Metrics.t
(** The run's metrics registry. Components attached to this engine
    register their counters and histograms here, so every run's numbers
    are isolated from every other run's. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> handle
(** [schedule_at t instant f] runs [f] when the clock reaches [instant].
    Scheduling in the past (or at the current instant) runs [f] at the
    current time, after all previously scheduled current-time events. *)

val schedule_after : t -> Time.t -> (unit -> unit) -> handle
(** [schedule_after t delay f] is
    [schedule_at t (Time.add (now t) delay) f]. [delay] must not be
    negative. *)

val cancel : handle -> unit
(** Cancelling a queued event removes it from {!pending} at once.
    Cancelling an already-run or already-cancelled event is a no-op. *)

val every : t -> ?start:Time.t -> interval:Time.t -> (unit -> unit) -> handle
(** [every t ~interval f] runs [f] at [start] (default [now + interval])
    and then each [interval] until the returned handle is cancelled.
    The handle itself is never queued: at any time the task has one
    queued tick, which {!pending} counts. Cancelling the handle does not
    dequeue that tick; it stays counted until its instant, when it runs
    as a no-op. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Processes events in time order until the queue is empty, the clock
    would pass [until], or [max_events] have run. Events scheduled exactly
    at [until] are processed. *)

val step : t -> bool
(** Processes a single event. [false] if the queue was empty. *)

val pending : t -> int
(** Number of queued (non-cancelled) events, including the next tick of
    each {!every} task. O(queued events): for tests and diagnostics, not
    for a per-event path. *)

val events_processed : t -> int
(** Total events run since creation; a cheap progress/cost metric. *)
