(** The management path between one router and the logically-central
    controller.

    Carries everything that is not the iBGP session itself: LSA feeds
    up (BGP-LS style), provisioning commands down (group installs,
    fast re-points). Commands are closures executed after the link's
    latency; the embedded {!Sim.Faults} injector — shared with the
    router's iBGP {!Bgp.Channel} — is where controller-partition
    windows are injected, so both directions of both planes black out
    together. *)

type t

val create : Sim.Engine.t -> name:string -> seed:int64 -> t
(** Commands take 1 ms to cross the link (management-network RTT/2). *)

val faults : t -> Sim.Faults.t
(** The link's injector — attach it to the iBGP channel too. *)

val send : t -> (unit -> unit) -> unit
(** Runs the closure at the far end after latency, unless the injector
    drops it. Duplicated deliveries run the closure twice; every
    command sent this way must be idempotent. *)

val partition : t -> from:Sim.Time.t -> until:Sim.Time.t -> unit
(** Blacks the link out on the window (the {!Sim.Faults.partition}
    profile). Healing is the {e caller's} job: schedule the two-sided
    resync at [until]. *)
