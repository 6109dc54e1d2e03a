(** The hardware convergence lab of the paper's Fig. 4, in simulation.

    R1 (the router under test) connects through the OpenFlow switch to
    its providers R2 (primary, preferred by LOCAL_PREF 200) and R3
    (backup, 100). A traffic source hangs off a second R1 interface; R2
    and R3 deliver transit traffic to the sink. In supercharged mode one
    or more controller replicas interpose on the BGP sessions and attach
    to the switch; in plain mode R1 peers with R2/R3 directly and runs
    BFD to them itself.

    The switch, the providers and the controller replicas come from
    {!Lab}; [run] adds R1, the traffic source and sink, and in plain
    mode R1's own BGP sessions and BFD towards the providers.

    [run] executes the full §4 methodology: establish sessions, load the
    feeds (R2 first, then R3, both peers advertising the same table),
    wait for the control plane and FIB to settle, start traffic towards
    [monitored_flows] random destinations (including the first and last
    prefix, as in the paper), disconnect R2 from the switch, and measure
    each flow's maximum inter-packet gap until full recovery. *)

type mode =
  | Plain
  | Supercharged of { replicas : int }

val pp_mode : Format.formatter -> mode -> unit

type traffic =
  | Event_driven  (** probe on forwarding-state changes (default; exact
                      to ±1 grid slot at any table size) *)
  | Dense  (** simulate every packet; small scenarios only *)

(** Which failure the lab injects once traffic is flowing. *)
type failure =
  | Fail_primary  (** disconnect the preferred provider (the paper's §4) *)
  | Fail_backup
      (** disconnect the least-preferred provider: traffic must be
          unaffected *)
  | Fail_two of Sim.Time.t
      (** disconnect the primary, then — after the given delay — the
          peer now carrying the traffic; needs ≥ 3 peers, and with
          [group_size] ≥ 3 both failovers stay in the fast path *)

val pp_failure : Format.formatter -> failure -> unit

type params = {
  mode : mode;
  n_prefixes : int;
  n_peers : int;  (** providers R2..R(n+1), preference ladder 200, 190, … *)
  group_size : int;  (** backup-group tuple size (supercharged mode) *)
  failure : failure;
  monitored_flows : int;
  seed : int64;
  bfd_tx_interval : Sim.Time.t;
  flow_mod_latency : Sim.Time.t;
  grid : Sim.Time.t;
  traffic : traffic;
  trace : bool;  (** keep the event trace (memory-heavy on big runs) *)
  pcap : string option;
      (** write a nanosecond pcap of R1's uplink to this file *)
  bgp_wire : bool;
      (** run every BGP session through the RFC 4271 binary codec with
          TCP-like 512-byte fragmentation (slower; integration tests use
          it to prove wire-level fidelity) *)
}

val default_params : ?mode:mode -> n_prefixes:int -> unit -> params
(** The paper's setup: 2 peers, groups of 2, [Fail_primary]; BFD every
    40 ms; flow-mod 2 ms (HP E3800); 70 µs grid; 100 monitored flows;
    seed 42. The calibration that no experiment varies is fixed where it
    is used: BFD's detection multiplier 3 ({!Bfd.Session.create}), R1's
    FIB batch start 280 ms and 281 µs per entry (Nexus 7k,
    {!Router.Fib.create}), the controller's 25 ms reroute (Floodlight
    REST push, {!Supercharger.Controller.create}) and the feed's 500
    updates per ms ({!Workloads.Feed.replay}). *)

type result = {
  r_params : params;
  t_fail : Sim.Time.t;  (** when R2 was disconnected *)
  convergence : Sim.Time.t option array;
      (** per monitored flow; [None] = never recovered *)
  outages : Sim.Time.t list array;
      (** every outage gap per flow, in order (two entries per flow
          under [Fail_two]) *)
  flow_mods_at_failover : int;  (** rules rewritten by Listing 2 *)
  backup_groups : int;  (** groups allocated (supercharged mode) *)
  updates_processed : int;
      (** BGP updates run through the controllers' decision process
          (0 in plain mode) *)
  fib_writes : int;  (** FIB entries applied over the whole run *)
  events : int;  (** simulation events processed *)
  probes : int;  (** measurement packets injected *)
  replica_digests : string list;
      (** canonical rendering of each controller replica's
          (backup-groups, rule selections); equal strings mean the
          replicas computed identical state (§3) *)
  trace_entries : Sim.Trace.entry list;
      (** the run's event trace; empty unless [params.trace] *)
  metrics : Obs.Metrics.t;
      (** the run's metrics registry (counters, gauges, histograms from
          every instrumented component — switch, BFD, controller,
          monitor) *)
}

val convergence_seconds : result -> float array
(** Recovered flows' convergence times in seconds.
    @raise Failure if any flow never recovered. *)

val run : params -> result

val pp_result : Format.formatter -> result -> unit
