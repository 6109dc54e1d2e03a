(** Declarative multi-router topology description.

    A specification names the routers (and which of them are
    supercharged), the weighted links between them (optionally tagged
    with a shared-risk link group, so one fibre cut can take several
    down together), and the external BGP peers hanging off edge
    routers. Everything else — IGP nodes, iBGP sessions to the
    controller, provisioners — is derived from it by {!Fabric.build}. *)

type node = {
  name : string;
  supercharged : bool;
}

type link = {
  ends : int * int;  (** router indices; unordered pair *)
  cost : int;  (** symmetric IGP cost; must be positive *)
  srlg : int option;  (** shared-risk link group tag, if any *)
}

type extern_peer = {
  at : int;  (** index of the edge router the peer hangs off *)
  asn : int;  (** the peer's AS number *)
  pref : int;  (** LOCAL_PREF its routes are imported with *)
}

type t = {
  nodes : node array;
  links : link array;
  externs : extern_peer array;
}

val make : nodes:node array -> links:link array -> externs:extern_peer array -> t
(** Validates the description: link/extern endpoints in range, positive
    costs, no self-links, no duplicate links, at least one router.
    @raise Invalid_argument on any violation. *)

val n_routers : t -> int
val n_externs : t -> int

val router_ip : int -> Net.Ipv4.t
(** Router [i]'s id, [10.0.0.(i+1)]. At most 254 routers. *)

val extern_ip : int -> Net.Ipv4.t
(** External peer [k]'s address, [172.16.(k+1).1]. *)

val extern_of_ip : t -> Net.Ipv4.t -> int option
(** Inverse of {!extern_ip} for addresses inside this spec. *)

val supercharged : t -> int -> bool
val supercharged_indices : t -> int list

val with_supercharged : t -> int list -> t
(** The same topology with exactly the listed routers supercharged —
    how the partial-deployment sweep varies coverage. *)

val link_between : t -> int -> int -> int option
(** Index of the link joining two routers, if adjacent. *)

val srlg_members : t -> int -> int list
(** Link indices carrying the given shared-risk tag. *)

val ring : routers:int -> externs:(int * int) list -> ?supercharged:int list -> unit -> t
(** [ring ~routers ~externs ()] is a cost-10 ring of [routers] (≥ 6)
    nodes in which every router [i] in the first half also links to its
    antipode at cost 25, a crude carrier-core mesh. [externs] lists
    [(at, pref)] pairs; peer [k] gets ASN [64600 + k]. The two ring
    links adjacent to router 0 share srlg 0 (one conduit into the site —
    the correlated-failure scenario), chords share srlg 1. *)

val pp : Format.formatter -> t -> unit
