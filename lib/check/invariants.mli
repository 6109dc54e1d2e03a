(** Convergence invariants of the supercharged pipeline, checked
    differentially against the flat-FIB {!Oracle}.

    Two strengths:
    - {!transient} holds at {e every} instant, including mid-convergence
      (the checker evaluates it after each schedule event): backup-group
      refcount bookkeeping is consistent, and every VMAC rule in the
      switch belongs to a registered group or to a retired VMAC whose
      delete is still in flight. Whenever the controller additionally
      reports {!Supercharger.Controller.quiescent} and the switch is
      idle — i.e. the flow table cannot be lagging the controller's
      intent — the bounded-window rule check joins in: every registered
      group's rule must point at its first alive member. This is what
      catches a skipped Listing 2 rewrite {e before} the linger GC
      erases the stale group.
    - {!at_quiescence} additionally demands full forwarding equivalence
      and is evaluated only once the system has settled (see
      {!Run.settle}): every oracle-covered prefix is announced, its
      announced next hop resolves through ARP semantics (VNH → VMAC, or
      a declared peer's MAC) and then through the {e real} switch
      pipeline ({!Openflow.Switch.resolve}) to exactly the oracle's
      physical MAC and egress port; no blackholes, no punts, no
      multi-port duplication; no prefix announced beyond the oracle's
      coverage; every registered group's rule exists, points at its
      first alive member (or drops when none is), and no rule exists for
      unregistered or retired VMACs.

    All checks are side-effect-free; violations are returned as
    human-readable strings (empty list = all invariants hold). *)

type subject = {
  controller : Supercharger.Controller.t;
  switch : Openflow.Switch.t;
  oracle : Oracle.t;
  probe_port : int;  (** switch port the probe frames arrive on *)
  probe_mac : Net.Mac.t;  (** their source MAC (the router's) *)
  probe_src : Net.Ipv4.t;  (** their source IP *)
}

val transient : subject -> string list
(** Invariants that must hold at every instant. *)

val at_quiescence : subject -> string list
(** The full set, including differential forwarding equivalence.
    Only meaningful once the system is quiescent. *)
