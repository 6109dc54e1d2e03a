(** Figure 5 — convergence time vs. number of prefixes, supercharged and
    non-supercharged, 3 repetitions × 100 monitored flows per point.

    The paper's series: 1 k, 5 k, 10 k, 50 k, 100 k, 200 k, 300 k,
    400 k, 500 k prefixes; each box plot shows median / IQR / 5th & 95th
    percentiles, with the maximum printed above. *)

type row = {
  n_prefixes : int;
  mode : Topology.mode;
  summary : Stats.summary;  (** over repetitions × flows, in seconds *)
  unrecovered : int;
  flow_mods : int;  (** switch flow-mods issued, summed over repetitions *)
  updates_processed : int;
      (** BGP updates run through the controllers, summed over
          repetitions (0 in plain mode) *)
  wall_s : float;  (** wall-clock spent simulating this point *)
  updates_per_sec : float;
      (** [updates_processed /. wall_s] — simulator control-plane
          throughput *)
  failover : Obs.Histogram.t;
      (** [controller.failover_seconds] merged across repetitions
          (empty in plain mode) *)
}

val paper_sizes : int list
(** The x-axis of the paper's Fig. 5. *)

val run :
  ?sizes:int list ->
  ?repetitions:int ->
  ?monitored_flows:int ->
  ?progress:(string -> unit) ->
  unit ->
  row list
(** Runs the full sweep (both modes per size), repetition [k] with seed
    [42 + k]. Defaults: the paper's sizes, 3 repetitions, 100 flows. *)

val to_json : row list -> Obs.Json.t
(** The sweep as a JSON object: [paper_max_seconds] reference values
    plus one object per (size, mode) with the convergence percentiles,
    flow-mod and update counts, updates/sec, and the failover-latency
    histogram snapshot. *)

val pp_table : Format.formatter -> row list -> unit
(** Prints the figure as a table, one row per (size, mode), with the
    paper's reference maxima and the improvement factor per size. *)

val to_csv : row list -> string
(** One line per (size, mode) with the box-plot statistics —
    [prefixes,mode,n,min,p5,q1,median,q3,p95,max,mean,unrecovered] —
    ready for external plotting. *)

val pp_ascii_figure : Format.formatter -> row list -> unit
(** Renders the box plots on a log-scale time axis, like the paper's
    Fig. 5: whiskers at the 5th/95th percentiles, a box over the
    inter-quartile range, the median marked inside. *)
