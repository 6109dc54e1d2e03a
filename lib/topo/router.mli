(** One router of the multi-node topology.

    Every router — supercharged or plain — runs an {!Igp.Node}, keeps a
    {!Bgp.Rib} fed by its local external peers and by the controller's
    route reflection, and advertises its best {e external} route to the
    reflector (next hop unchanged, as iBGP does).

    The difference is who owns the forwarding table. A {e plain} router
    computes it locally from its RIB (with next-hop validation against
    its own IGP view) and pays the legacy per-prefix FIB write cost
    through a serialised update queue. A {e supercharged} router's
    table is owned by the controller: entries arrive over the
    management link as direct egress pointers or backup-group bindings,
    and failover is the provisioner's O(groups) re-point. *)

type entry =
  | Via of int  (** forward toward this extern (resolved hop by hop) *)
  | Group of Supercharger.Backup_group.binding

val internal_asn : Bgp.Asn.t

type t

val create :
  Sim.Engine.t ->
  spec:Spec.t ->
  index:int ->
  activity:int ref ->
  t
(** [activity] is the net-wide monotone work counter (quiescence
    detection). A plain router's FIB burst starts 10 ms after the first
    queued write and applies an entry every 281 µs (the paper's legacy
    write cost); next-hop revalidation is debounced by 10 ms; IGP
    floods take {!Igp.Node.create}'s 1 ms per hop. *)

val index : t -> int
val router_id : t -> Net.Ipv4.t
val supercharged : t -> bool
val igp : t -> Igp.Node.t
val rib : t -> Bgp.Rib.t
val speaker : t -> Bgp.Speaker.t
val provisioner : t -> Supercharger.Provisioner.t option

val connect_controller :
  t -> channel:Bgp.Channel.t -> side:Bgp.Channel.side -> Bgp.Speaker.peer
(** Wires the iBGP session towards the controller and registers the
    update/established handlers (resync runs on every establishment). *)

val set_management :
  t ->
  lsa:(Igp.Lsa.t -> unit) ->
  extern_event:(int -> bool -> unit) ->
  prune:(Net.Prefix.t list -> unit) ->
  unit
(** Wires the management-link callbacks towards the controller. *)

val start : t -> unit

val learn_extern : t -> extern:int -> (Net.Prefix.t * Bgp.Attributes.t) list -> unit
(** Replaces the named local peer's announced table and (if the peer is
    believed alive) applies it to the RIB. *)

val detect_extern_down : t -> extern:int -> unit
(** The local fast-detection (BFD) verdict: withdraw the peer's routes,
    re-advertise, and signal the controller. Idempotent. *)

val detect_extern_up : t -> extern:int -> unit

val resync_with_controller : t -> unit
(** Full-state re-send (adverts + prune + LSA + extern beliefs), run on
    session establishment and after a healed partition. *)

val apply_controlled : t -> Net.Prefix.t -> entry option -> unit
(** Controller-pushed FIB write (supercharged routers); applied
    immediately — the management link already charged its latency. *)

val lookup : t -> Net.Prefix.t -> entry option

val choice : t -> Net.Prefix.t -> int option
(** The extern this router currently forwards the prefix toward
    (resolving group indirection through the provisioner's selection). *)

val fib_ops_applied : t -> int
val busy : t -> bool
(** Queued FIB work or a pending revalidation — not yet quiescent. *)
