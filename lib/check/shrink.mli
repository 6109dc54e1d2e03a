(** The counterexample shrinker every checker ({!Run}, {!Ribscale},
    {!Topo_run}) runs on its failing schedule's events. *)

val list : fails:('a list -> bool) -> 'a list -> 'a list
(** Greedy delta debugging: repeatedly removes chunks of events
    (halving the chunk size down to single events) as long as [fails]
    still holds on the remainder, to a fixpoint where no single event
    can be dropped. Returns the list unchanged if [fails] does not hold
    on it. Sound because every checker's interpreter is total, so any
    sublist of a schedule is a schedule. [fails] is re-run on every
    candidate, so it must be deterministic. *)
