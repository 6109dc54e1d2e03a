(** The §4 controller micro-benchmark.

    "We measured the time our … BGP controller took to process two
    times 500 K updates from two different peers. In the worst-case,
    processing an update took 0.8 s but the 99th percentile was only
    125 ms."

    The benchmark feeds the interleaved double feed straight through the
    controller's processing pipeline (decision process → Listing 1 →
    emission construction), timing each update with a wall-clock. The
    shape to reproduce is a heavy tail (the worst case far above the
    99th percentile) with a bounded p99; the absolute numbers are
    expected to be far below the paper's unoptimised Python. *)

type report = {
  updates : int;
  emissions : int;
  backup_groups : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  max_us : float;
  total_s : float;
}

val run : ?count:int -> unit -> report
(** [count] prefixes per peer (default 500_000 — the paper's size;
    tests use smaller), seed 42. *)

val pp_report : Format.formatter -> report -> unit
