(** Backup-group registry — the paper's [bck_groups] map.

    A backup-group is the ordered tuple of the first [group_size] next
    hops of a prefix's ranked candidate list; the paper works with size
    2, "(primary NH, backup NH)", and notes the algorithm generalises to
    any size — this registry implements the generalisation. Each
    distinct tuple is assigned a (VNH, VMAC) pair on first sight.

    With [n] peers and groups of size 2 there are at most n·(n−1)
    groups (§2: 90 for ten neighbours). *)

type binding = {
  next_hops : Net.Ipv4.t list;
      (** ordered, length ≥ 2; head = primary *)
  vnh : Net.Ipv4.t;
  vmac : Net.Mac.t;
  mutable refs : int;
      (** prefixes currently announced with this group's VNH; maintained
          via {!acquire}/{!release} *)
}

val pp_binding : Format.formatter -> binding -> unit

type t

val create : ?group_size:int -> Vnh.t -> t
(** [group_size] defaults to 2 and must be ≥ 2. *)

val group_size : t -> int

val find_or_create : t -> Net.Ipv4.t list -> binding
(** Looks up the (truncated) tuple, allocating a fresh (VNH, VMAC) on
    first sight — in which case the [on_create] observer fires (the
    controller uses it to provision the switch rule before any traffic
    can carry the new tag). Requires ≥ 2 next hops. *)

val find : t -> Net.Ipv4.t list -> binding option

val find_by_vnh : t -> Net.Ipv4.t -> binding option
(** The ARP responder's lookup. *)

val find_by_vmac : t -> Net.Mac.t -> binding option

val with_primary : t -> Net.Ipv4.t -> binding list
(** Groups whose primary next hop is the given peer — the iteration
    space of the paper's Listing 2. *)

val with_member : t -> Net.Ipv4.t -> binding list
(** Groups containing the peer anywhere in the tuple. *)

val all : t -> binding list

val count : t -> int
(** Registered groups, including idle (refcount-zero) ones awaiting
    {!destroy}. *)

val acquire : t -> binding -> unit
(** Takes a reference: a prefix is now announced with this group's
    VNH. *)

val release : t -> binding -> unit
(** Drops a reference. At refcount zero the group becomes {e idle}: it
    stays registered (its rule keeps forwarding in-flight traffic and
    [find_or_create] can resurrect it) and the [on_idle] observer fires
    so the owner can schedule {!destroy}.
    @raise Invalid_argument on refcount underflow. *)

val refs : binding -> int

val live_count : t -> int
(** Groups with refcount > 0. *)

val destroy : t -> binding -> bool
(** Unregisters an idle group and returns its (VNH, VMAC) pair to the
    allocator for reuse. [false] (and no effect) when the group has been
    re-acquired since going idle, or was already destroyed. The caller
    is responsible for removing the group's switch rule. *)

val on_create : t -> (binding -> unit) -> unit

val on_idle : t -> (binding -> unit) -> unit
(** Observer for groups reaching refcount zero; the controller uses it
    to garbage-collect the group and its switch rule after a linger
    period. *)

val theoretical_max : n_peers:int -> group_size:int -> int
(** Upper bound on the number of groups: ordered tuples of distinct
    peers of any length from 2 to [group_size] —
    Σⱼ n!/(n−j)!, which is the paper's n!/(n−2)! (90 at n = 10) for
    the paper's k = 2. *)
