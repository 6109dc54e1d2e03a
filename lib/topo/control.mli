(** The logically-centralized control plane of a multi-router topology.

    Three roles in one place:

    {ul
    {- {b Route reflector}: one iBGP session per router (real
       {!Bgp.Session}s over {!Bgp.Channel}s). Each client advertises
       its best external route; the reflector keeps the per-origin
       advert store in a {!Bgp.Rib} and reflects the per-prefix best to
       every other client.}
    {- {b Link-state view}: routers feed their self-originated LSAs
       over the management link (BGP-LS style) into the controller's
       {!Igp.Database}; per-router SPF tables over it are memoized and
       invalidated on every database change.}
    {- {b Remote-failure backup groups}: for each {e supercharged}
       router the controller ranks every viable egress per prefix —
       global BGP attribute order, then that router's IGP distance —
       and provisions the top pair as a backup group in the router's
       provisioner. A remote extern failure or a reachability change
       detected through the LSDB becomes an O(groups) fast re-point,
       not a per-prefix reconvergence.}} *)

type t

val create :
  Sim.Engine.t ->
  spec:Spec.t ->
  activity:int ref ->
  t
(** A 25 ms debounce precedes the background pass that re-derives
    per-prefix group bindings after BGP or LSDB changes. *)

val add_client :
  t ->
  router:Router.t ->
  channel:Bgp.Channel.t ->
  side:Bgp.Channel.side ->
  link:Control_link.t ->
  unit
(** Registers the router: iBGP session on [side] of [channel], plus the
    management link (whose callbacks on the router are wired here). *)

val start : t -> unit

val resync_router : t -> int -> unit
(** Full controller→router state re-send — re-reflection of every best
    route, provisioner resync, entry re-push. Runs on (re-)establishment
    of the client session and after a healed partition. *)

val quiescent : t -> bool
(** No debounced rebind pass is pending. *)

val lsdb : t -> Igp.Database.t
val speaker : t -> Bgp.Speaker.t
val reflects_sent : t -> int
val fast_repoints : t -> int
val rebind_pushes : t -> int
