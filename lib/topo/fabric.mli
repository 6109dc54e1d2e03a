(** A running multi-router fabric: routers + controller + ground truth.

    [build] instantiates a {!Spec}: one {!Router} per node, IGP
    adjacencies per link, one {!Control} with a per-router iBGP channel
    and management {!Control_link} (the two share a fault injector, so a
    partition blacks out both). The module also keeps the {e ground
    truth} — which links and external peers are really up, and what each
    extern announced — which the fault API mutates instantly while the
    protocol machinery only learns of it after a detection delay. The
    gap between the two is exactly what the checker and the deployment
    experiment measure. *)

type outcome =
  | Delivered of int  (** reached this (alive) external peer *)
  | Blackhole  (** dropped: dead extern, dead wire, or drop rule *)
  | Unrouted  (** some on-path router has no FIB entry *)
  | Loop  (** TTL exhausted while routers deflect in a cycle *)

val pp_outcome : Format.formatter -> outcome -> unit
val outcome_equal : outcome -> outcome -> bool

type t

val build : Sim.Engine.t -> Spec.t -> t
(** An external peer's real failure or recovery reaches its host router
    30 ms later (BFD-style detection), and a link's reaches the IGP
    30 ms later too. Management commands cross a {!Control_link} in
    1 ms; router and controller timings are those of {!Router.create}
    and {!Control.create}. *)

val start : t -> unit

val engine : t -> Sim.Engine.t
val spec : t -> Spec.t
val router : t -> int -> Router.t
val routers : t -> Router.t list
val control : t -> Control.t
val activity : t -> int

(** {1 Ground truth} (for the oracle) *)

val link_up : t -> int -> bool
val extern_alive : t -> int -> bool
val announced : t -> int -> (Net.Prefix.t * Bgp.Attributes.t) list

(** {1 Feeds and faults}

    Faults flip the ground truth immediately; the corresponding
    protocol-level detection fires after the configured delay. All are
    idempotent. *)

val announce_extern : t -> extern:int -> Net.Prefix.t list -> unit
(** The extern announces these prefixes (attributes derived from the
    spec: its ASN as path, its preference as LOCAL_PREF, its address as
    NEXT_HOP). *)

val fail_extern : t -> extern:int -> unit
val recover_extern : t -> extern:int -> unit
val fail_link : t -> link:int -> unit
val recover_link : t -> link:int -> unit

val fail_srlg : t -> srlg:int -> unit
(** Correlated failure: every link in the risk group at once. *)

val recover_srlg : t -> srlg:int -> unit

val partition : t -> routers:int list -> from:Sim.Time.t -> until:Sim.Time.t -> unit
(** Black out the named routers' control connectivity (iBGP {e and}
    management link) for the window, then resync both sides at heal. *)

(** {1 Observation} *)

val outcome : t -> ingress:int -> Net.Prefix.t -> outcome
(** Walk a packet hop by hop: each router forwards by {e its own} FIB
    and IGP view, dead wires drop, TTL [4n] catches deflection loops. *)

val run_until : t -> Sim.Time.t -> unit

val measure :
  t ->
  flows:(int * Net.Prefix.t) list ->
  step:Sim.Time.t ->
  until:Sim.Time.t ->
  ((int * Net.Prefix.t) * Sim.Time.t) list
(** Advance in [step] slices up to [until], sampling every flow's
    {!outcome} per slice; a slice whose sample is not [Delivered] counts
    as outage. Returns per-flow accumulated outage. *)

val settle : t -> ?budget:Sim.Time.t -> unit -> bool
(** Run until the network is quiescent: the activity counter stable
    across consecutive 25 ms slices with no router busy and no rebind
    pending.
    [false] if the budget (default 60 s simulated) runs out first. *)
