(** Shortest-path-first computation (Dijkstra over the LSA database).

    Per link-state convention a link contributes to the topology only
    when {e both} endpoints advertise it (the two-way connectivity
    check), so a router that died — or whose LSA has not arrived yet —
    cannot attract traffic through stale adjacencies.

    One {!compute} produces a reusable {!table} answering every
    per-target query in O(1); a controller ranking backup egresses for
    every (source, target) pair must not pay a Dijkstra per query. *)

type table
(** The result of one SPF run from a fixed source over a fixed LSA set. *)

val compute : source:Net.Ipv4.t -> lsas:Lsa.t list -> table
(** Runs Dijkstra once. Links are asymmetric: the cost advertised by the
    near end is used in each direction. *)

val source : table -> Net.Ipv4.t

val distance : table -> Net.Ipv4.t -> int option
(** Cost of the shortest path to the target ([Some 0] for the source
    itself); [None] when unreachable. *)

val first_hop : table -> Net.Ipv4.t -> Net.Ipv4.t option
(** The neighbor the shortest path to the target leaves through. [None]
    for the source itself and for unreachable targets. Ties are broken
    deterministically by settlement order. *)

val reachable : table -> Net.Ipv4.t -> bool

val to_alist : table -> (Net.Ipv4.t * int) list
(** Every reachable router with its distance, sorted by router id. *)

val computations : unit -> int
(** Process-wide count of {!compute} runs, for regression tests pinning
    the one-SPF-per-database-change contract. *)

val distances : source:Net.Ipv4.t -> lsas:Lsa.t list -> (Net.Ipv4.t * int) list
(** [to_alist (compute ~source ~lsas)] — convenience for one-shot use. *)

val distance_to : source:Net.Ipv4.t -> lsas:Lsa.t list -> Net.Ipv4.t -> int option
(** One-shot variant of {!distance}; runs a full SPF per call. Callers
    with more than one query should hold a {!table}. *)
