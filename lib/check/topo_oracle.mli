(** The multi-node forwarding-equivalence oracle.

    From the fabric's {e ground truth} alone — which links and externs
    are really up and what each extern announced — this module predicts
    where every router should forward each prefix at quiescence.
    Reachability comes from its own Floyd-Warshall over the up-link
    graph (independent of the routers' incremental Dijkstra); route
    preference reuses {!Bgp.Decision.compare}, the shared definition the
    distributed machinery must agree with.

    The prediction is deliberately per-router-kind. A plain router sees
    remote egresses only through the reflector's single best route (a
    genuine blind spot, mirrored here, not corrected); a supercharged
    router gets the controller's full ranking of every origin's
    best-external. *)

type view = {
  spec : Topo.Spec.t;
  link_up : int -> bool;
  extern_alive : int -> bool;
  announced : int -> (Net.Prefix.t * Bgp.Attributes.t) list;
}

val of_fabric : Topo.Fabric.t -> view

val distances : view -> int array array
(** All-pairs shortest paths over up links ([{!inf}] = unreachable). *)

val connected : int array array -> bool

val expected_choice : view -> int array array -> router:int -> Net.Prefix.t -> int option
(** The extern the router should forward the prefix toward at
    quiescence, [None] when it should hold no usable route. Takes the
    matrix from {!distances}. *)
