(** A link-state router instance: originates its own LSA, floods
    received ones, and recomputes shortest paths on every database
    change.

    Adjacencies are wired with {!connect}; taking one down with
    {!disconnect} makes both ends re-originate and flood, after which
    every node's view converges (the tests assert equal databases and
    correct distances). Routes feed {!distance_to}, which is what a BGP
    speaker plugs into its decision process as the IGP cost of a next
    hop. *)

type t

val create : Sim.Engine.t -> router_id:Net.Ipv4.t -> ?flood_delay:Sim.Time.t -> unit -> t
(** [flood_delay] (default 1 ms) is the per-hop propagation + processing
    delay of flooding. The node installs its own (empty) LSA
    immediately. *)

val router_id : t -> Net.Ipv4.t

val connect : a:t -> b:t -> cost:int -> unit
(** Creates the bidirectional adjacency (same cost both ways; use two
    calls with different costs for asymmetry via {!set_cost}), makes
    both ends re-originate and flood. *)

val set_cost : a:t -> b:t -> cost:int -> unit
(** Changes the cost [a] advertises towards [b] only. *)

val disconnect : a:t -> b:t -> unit
(** Tears the adjacency down on both ends (flooding between them still
    uses remaining links). *)

val database : t -> Database.t

val receive : t -> from:Net.Ipv4.t -> Lsa.t -> unit
(** Handles an LSA flooded in by neighbor [from]: installs it if it is
    news — including a same-sequence LSA whose links differ from the
    held copy — and floods it onward to every other neighbor. This is
    the entry point flooding itself uses; exposed so tests and fault
    injectors can present arbitrary LSAs to a node. *)

val spf : t -> Spf.table
(** The node's current shortest-path table, memoized per database
    change: repeated queries between changes run zero extra SPFs. *)

val distances : t -> (Net.Ipv4.t * int) list
val distance_to : t -> Net.Ipv4.t -> int option

val next_hop_to : t -> Net.Ipv4.t -> Net.Ipv4.t option
(** The neighbor the shortest path to the target leaves through. *)

val on_change : t -> ((Net.Ipv4.t * int) list -> unit) -> unit
(** Fires after each SPF recomputation triggered by a database change. *)
