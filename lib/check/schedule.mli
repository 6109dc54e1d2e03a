(** Seeded random event schedules for {!Run}.

    A schedule is a fully deterministic recipe: the seed fixes the event
    list here {e and} the simulation's RNG and every fault injector's
    draw in {!Run.execute}, so a printed failing schedule replays
    bit-for-bit from its seed alone.

    Events reference peers and prefixes by dense index; {!Run} maps them
    to concrete addresses. The interpreter is {e total} — bringing up a
    peer that is already up, withdrawing a prefix the peer never
    announced, or flapping a dead peer are well-defined no-ops — which
    is what makes {!Shrink.list} sound: any sublist of a valid schedule
    is a valid schedule.

    Fault placement is principled, not uniform. Faults must perturb the
    {e system}, never the {e input}, or a divergence from the oracle
    would be the schedule's fault rather than a bug:
    - the OpenFlow control path gets windowed {e blackouts} (total loss,
      which the retry/degradation ladder must detect and repair) — never
      partial loss or delay, which a real ordered TCP channel cannot
      produce;
    - upstream BGP channels get {e duplicates} only (idempotent at the
      RIB; BGP has no retransmission, so a dropped or reordered
      announcement would change the scenario itself);
    - the controller→router channel takes the full named [lossy]/[chaos]
      profiles, because the invariants read the controller's announced
      state directly;
    - BFD chaos is expressed as explicit {!event.Bfd_flap} events. *)

type event =
  | Announce of { peer : int; prefix : int; pref : int; prepend : int }
      (** peer announces prefix with LOCAL_PREF [pref] and [prepend]
          extra copies of its own AS on the path *)
  | Withdraw of { peer : int; prefix : int }
  | Peer_down of int  (** data-plane link cut (BFD detects it) *)
  | Peer_up of int
      (** link restored; the peer stays silent (its BGP session never
          reset), so the controller must restore the routes from its
          own Adj-RIB-In *)
  | Bfd_flap of int  (** spurious BFD Down injected into the session *)
  | Of_blackout of { span_ms : int }
      (** total OpenFlow control-path loss for the window *)
  | Router_faults of { profile : string; span_ms : int }
      (** named {!Sim.Faults} profile ([lossy]/[chaos]) on the
          controller→router channel for the window *)
  | Channel_dup of { peer : int; span_ms : int }
      (** duplicate-only faults on the peer's BGP channel *)

type step = {
  ev : event;
  dwell_ms : int;  (** simulated time to let pass after the event *)
}

type t = {
  seed : int64;
  n_peers : int;
  n_prefixes : int;
  steps : step list;
}

val generate :
  seed:int64 ->
  ?n_peers:int ->
  ?n_prefixes:int ->
  ?length:int ->
  ?chaos:bool ->
  unit ->
  t
(** Draws a schedule from the seed. Defaults: 3 peers, 12 prefixes, 30
    events, [chaos] true (fault-window events included). The same seed
    and parameters always produce the same schedule. *)

val length : t -> int

val pp : Format.formatter -> t -> unit
(** Prints the seed, dimensions and numbered event list — everything
    needed to reproduce a failure by hand. *)

val pp_event : Format.formatter -> event -> unit
