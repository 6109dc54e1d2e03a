(** Virtual next-hop (VNH) and virtual MAC (VMAC) allocation.

    Each distinct backup-group is provisioned with one (VNH, VMAC) pair:
    the VNH is what the controller writes into the BGP NEXT_HOP towards
    the router, and the VMAC is what the controller's ARP responder
    resolves it to. Allocation is deterministic — strictly sequential,
    with released pairs recycled in FIFO order — so replicated
    controllers fed the same update stream allocate identical pairs. *)

type t

val create : ?pool:Net.Prefix.t -> unit -> t
(** Defaults: VNHs drawn from [10.199.0.0/16] (host part starting at 1),
    VMACs from [00:ff:00:00:00:01] upward. The pool prefix must be at
    least a /24. *)

val fresh : t -> Net.Ipv4.t * Net.Mac.t
(** The paper's [get_new_vnh_vmac()]. Recycles the oldest released pair
    when one exists, otherwise hands out the next sequential pair.
    @raise Failure when the pool is exhausted. *)

val release : t -> Net.Ipv4.t * Net.Mac.t -> unit
(** Returns a pair to the allocator for later reuse. The caller (the
    backup-group registry) guarantees the pair came from [fresh] and is
    no longer referenced. *)

val allocated : t -> int
(** Pairs currently outstanding (handed out and not released). *)

val in_pool : t -> Net.Ipv4.t -> bool
(** Whether an address could be a VNH of this allocator (it lies in the
    pool), independently of whether it has been handed out yet. *)

val is_virtual_mac : t -> Net.Mac.t -> bool
(** Whether the MAC was allocated by this allocator. *)

val pool : t -> Net.Prefix.t
