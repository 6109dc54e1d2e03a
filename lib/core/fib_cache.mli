(** FIB-size supercharging (§1 of the paper):

    "the size of the router forwarding tables can be increased using a
    SDN switch as a cache (similarly to [ViAggre]). In this case, the
    router table would contain aggregated entries that would get
    resolved in the switch table."

    One (VNH, VMAC) pair acts as the indirection tag. The router is
    announced only coarse {e aggregates} (default /8 covers) whose next
    hop is the indirection VNH, so its flat FIB needs a handful of
    entries; the switch holds the full specific table as rules

    [match(dl_dst = VMAC, nw_dst = prefix) → set_dl_dst(peer), output]

    with priority increasing in prefix length — longest-prefix matching
    evaluated in the switch TCAM. The compression factor is
    #specifics / #aggregates (hundreds at Internet shape). *)

type t

val create :
  ?aggregate_len:int ->
  allocator:Vnh.t ->
  send:(Openflow.Message.t -> unit) ->
  unit ->
  t
(** [aggregate_len] (default 8) is the mask length aggregates are cut
    at. A rule's priority is 1000 plus its prefix length, above the
    convergence rules. One (VNH, VMAC)
    pair is drawn from [allocator] as the indirection tag. *)

val vnh : t -> Net.Ipv4.t
(** Announce aggregates towards the router with this next hop (its ARP
    resolves to {!vmac} through the usual responder path). *)

val vmac : t -> Net.Mac.t

val declare_peer : t -> Provisioner.peer_info -> unit

type emission =
  | Announce_aggregate of Net.Prefix.t
  | Withdraw_aggregate of Net.Prefix.t

val route : t -> Net.Prefix.t -> Net.Ipv4.t option -> emission list
(** [route t prefix (Some nh)] binds the specific prefix to the peer:
    a fresh binding installs its switch rule with [Add], a re-route to
    a different peer updates the installed rule with [Modify_strict],
    and a re-route to the same peer is a no-op (no flow-mod, no
    [rules_sent] tick). [None] removes the binding. Returns the
    aggregate announcements/withdrawals the change implies for the
    router ([Announce_aggregate] when a cover gains its first specific,
    [Withdraw_aggregate] when it loses its last).
    @raise Invalid_argument for an undeclared peer. *)

val resolve : t -> Net.Ipv4.t -> Net.Ipv4.t option
(** The peer a destination currently resolves to (longest match over
    the specifics) — what the switch rules implement. Zero-alloc flat
    lookup, so also safe on per-packet paths. *)

val resolve_batch : t -> Net.Ipv4.t array -> Net.Ipv4.t option array -> unit
(** [resolve_batch t addrs out] resolves a burst in one pass, writing
    [resolve t addrs.(i)] into [out.(i)].
    @raise Invalid_argument if [out] is shorter than [addrs]. *)

val specifics : t -> int
(** Specific prefixes held in the switch. *)

val aggregates : t -> int
(** Aggregate entries the router holds. *)

val compression_factor : t -> float
(** [specifics / aggregates]. *)

val rules_sent : t -> int
(** Flow-mods actually emitted (adds, in-place modifies, deletes).
    Idempotent re-routes are not counted — the figure matches the
    number of messages the switch really had to process. *)
