(** Ablation studies on the design choices DESIGN.md calls out.

    A1 — failure detection dominates supercharged convergence: sweep the
    BFD transmit interval and watch the supercharged convergence scale
    with detection time while staying independent of table size.

    A2 — switch rule-installation latency: sweep the per-flow-mod
    latency; supercharged convergence moves by (#rewritten rules ×
    latency), which is tiny because the rule count is O(#peers).

    A3 — replicated controllers (§3): two replicas fed the same
    sessions produce identical backup-groups and rules; convergence is
    unchanged, and the supercharged router keeps working when one
    replica dies before the failure. *)

type point = {
  label : string;
  value_ms : float;  (** the swept parameter, in milliseconds *)
  median_s : float;
  max_s : float;
}

val bfd_sweep :
  ?tx_intervals_ms:int list -> ?n_prefixes:int -> ?seed:int64 -> unit -> point list
(** Default intervals: 10, 20, 50, 100, 200 ms; 10 k prefixes,
    supercharged mode. *)

val flow_mod_sweep :
  ?latencies_ms:float list -> ?n_prefixes:int -> ?seed:int64 -> unit -> point list
(** Default latencies: 0.1, 1, 5, 10, 20 ms; 10 k prefixes,
    supercharged mode. *)

(** A4 — backup-groups of any size (§2's generalisation): fail the
    primary, then 200 ms later the peer now carrying the traffic. With
    pairs the second failover must wait for the router's slow path; with
    triples it is one more rule rewrite. *)
type double_failure_report = {
  first_outage_s : float;  (** worst first outage (same for both sizes) *)
  second_outage_pairs_s : float;
  second_outage_triples_s : float;
}

val double_failure :
  ?n_prefixes:int -> ?delay:Sim.Time.t -> ?seed:int64 -> unit -> double_failure_report

val pp_double_failure : Format.formatter -> double_failure_report -> unit

type replica_report = {
  identical_groups : bool;  (** both replicas allocated the same VNH/VMACs *)
  identical_rules : bool;  (** and would install the same rules *)
  convergence_max_s : float;  (** with both replicas alive *)
}

val replicas : ?n_prefixes:int -> ?seed:int64 -> unit -> replica_report

val pp_points : header:string -> Format.formatter -> point list -> unit
val pp_replica_report : Format.formatter -> replica_report -> unit
