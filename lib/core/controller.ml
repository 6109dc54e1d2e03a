module Ip_table = Hashtbl.Make (struct
  type t = Net.Ipv4.t

  let equal = Net.Ipv4.equal
  let hash = Net.Ipv4.hash
end)

module Prefix_tbl = Hashtbl.Make (struct
  type t = Net.Prefix.t

  let equal = Net.Prefix.equal
  let hash = Net.Prefix.hash
end)

type upstream = {
  up_peer : Bgp.Speaker.peer;
  up_ip : Net.Ipv4.t;
  up_import_local_pref : int option;
}

type downstream = {
  down_peer : Bgp.Speaker.peer;
  mutable down_pending : Bgp.Message.update list; (* reversed, until established *)
}

type 'a tuning =
  ?group_size:int ->
  ?group_linger:Sim.Time.t ->
  ?ack_timeout:Sim.Time.t ->
  ?bfd_debounce:Sim.Time.t ->
  ?probe_interval:Sim.Time.t ->
  ?bfd_tx_interval:Sim.Time.t ->
  'a

type mode = Supercharged | Degraded

let pp_mode ppf = function
  | Supercharged -> Fmt.string ppf "supercharged"
  | Degraded -> Fmt.string ppf "degraded"

(* A barrier whose reply the controller is still waiting for. Failover
   barriers carry the failed peer (so a timeout can re-issue that
   failover's rewrites) and the BFD-down instant (for the latency
   histogram); degraded-mode probes carry neither. *)
type pending_ack = {
  pa_xid : int;
  pa_failed : Net.Ipv4.t option;
  pa_down_at : Sim.Time.t option;
  pa_attempt : int;
  mutable pa_timer : Sim.Engine.handle option;
}

type t = {
  engine : Sim.Engine.t;
  name : string;
  group_linger : Sim.Time.t;
  ack_timeout : Sim.Time.t;
  bfd_debounce : Sim.Time.t;
  probe_interval : Sim.Time.t;
  bfd_tx_interval : Sim.Time.t;
  speaker : Bgp.Speaker.t;
  rib : Bgp.Rib.t;
  groups : Backup_group.t;
  algorithm : Algorithm.t;
  mutable provisioner : Provisioner.t option;
  mutable to_switch : (Openflow.Message.t -> unit) option;
  mutable upstreams : upstream list; (* reversed *)
  mutable downstreams : downstream list; (* reversed *)
  mutable dataplane : Router.Endhost.t option;
  bfd_sessions : Bfd.Session.t Ip_table.t;
  mutable failed : Net.Ipv4.t list;
  adj_rib_in : Bgp.Attributes.t Prefix_tbl.t Ip_table.t;
      (* soft-reconfiguration inbound: each peer's current advertisements
         (post-import-policy), maintained on every update whether the
         peer is up or BFD-failed. The BGP session survives a data-plane
         failure, so the peer never re-sends after one; this shadow is
         the only way the slow path's RIB withdrawal can be undone on
         recovery. *)
  mutable igp_cost_fn : (Net.Ipv4.t -> int) option;
  mutable failover_cb : (failed:Net.Ipv4.t -> flow_mods:int -> unit) option;
  mutable failovers : int;
  mutable updates_processed : int;
  mutable started : bool;
  mutable next_xid : int;
  mutable mode : mode;
  mutable pending_acks : pending_ack list;
  mutable slow_path_waits : (Net.Ipv4.t * Sim.Engine.handle) list;
      (* debounced per-peer RIB withdrawals; cancelled by a flap's Up *)
  mutable inflight_transitions : int;
      (* reroute/repair callbacks scheduled but not yet run *)
  mutable probe_task : Sim.Engine.handle option;
  m_updates : Obs.Metrics.counter;
  m_updates_sent : Obs.Metrics.counter;
  m_emissions : Obs.Metrics.counter;
  m_groups_live : Obs.Metrics.gauge;
  m_failover : Obs.Histogram.t;
  m_ack_timeouts : Obs.Metrics.counter;
  m_rule_retries : Obs.Metrics.counter;
  m_degradations : Obs.Metrics.counter;
  m_recoveries : Obs.Metrics.counter;
  m_flaps_suppressed : Obs.Metrics.counter;
}

(* Computation plus REST push between a BFD transition and the
   controller's reaction (Floodlight, DESIGN §5). *)
let reroute_latency = Sim.Time.of_ms 25

(* Unanswered barriers before the controller degrades. *)
let ack_max_retries = 3

let trace t fmt =
  Sim.Trace.emitf (Sim.Engine.trace t.engine) (Sim.Engine.now t.engine)
    ~category:"controller" fmt

let create engine ~name ~asn ~router_id ?(group_size = 2)
    ?(group_linger = Sim.Time.of_sec 5.0) ?(ack_timeout = Sim.Time.of_ms 100)
    ?(bfd_debounce = Sim.Time.of_ms 100) ?(probe_interval = Sim.Time.of_ms 250)
    ?(bfd_tx_interval = Sim.Time.of_ms 40) () =
  let allocator = Vnh.create () in
  let groups = Backup_group.create ~group_size allocator in
  let metrics = Sim.Engine.metrics engine in
  {
    engine;
    name;
    group_linger;
    ack_timeout;
    bfd_debounce;
    probe_interval;
    bfd_tx_interval;
    speaker = Bgp.Speaker.create engine ~name ~asn ~router_id ();
    rib = Bgp.Rib.create ();
    groups;
    algorithm = Algorithm.create groups;
    provisioner = None;
    to_switch = None;
    upstreams = [];
    downstreams = [];
    dataplane = None;
    bfd_sessions = Ip_table.create 8;
    failed = [];
    adj_rib_in = Ip_table.create 4;
    igp_cost_fn = None;
    failover_cb = None;
    failovers = 0;
    updates_processed = 0;
    started = false;
    next_xid = 1;
    mode = Supercharged;
    pending_acks = [];
    slow_path_waits = [];
    inflight_transitions = 0;
    probe_task = None;
    m_updates = Obs.Metrics.counter metrics "controller.updates_processed";
    m_updates_sent = Obs.Metrics.counter metrics "controller.updates_sent";
    m_emissions = Obs.Metrics.counter metrics "controller.emissions";
    m_groups_live = Obs.Metrics.gauge metrics "controller.groups_live";
    m_failover = Obs.Metrics.histogram metrics "controller.failover_seconds";
    m_ack_timeouts = Obs.Metrics.counter metrics "controller.ack_timeouts";
    m_rule_retries = Obs.Metrics.counter metrics "controller.rule_retries";
    m_degradations = Obs.Metrics.counter metrics "controller.degradations";
    m_recoveries = Obs.Metrics.counter metrics "controller.recoveries";
    m_flaps_suppressed = Obs.Metrics.counter metrics "controller.bfd_flaps_suppressed";
  }

let name t = t.name

let provisioner_exn t =
  match t.provisioner with
  | Some p -> p
  | None -> invalid_arg (t.name ^ ": switch not connected")

(* --- relaying emissions to the supercharged router(s) ----------------- *)

(* Consecutive emissions of the same kind are packed into a single
   UPDATE, like a real speaker would: announcements sharing attributes
   become one attribute block with many NLRI, and runs of withdrawals
   become one message's [withdrawn] list. *)
type emission_run =
  | No_run
  | Announce_run of Bgp.Attributes.t * Net.Prefix.t list (* NLRI reversed *)
  | Withdraw_run of Net.Prefix.t list (* reversed *)

let updates_of_emissions emissions =
  let flush run acc =
    match run with
    | No_run -> acc
    | Announce_run (attrs, nlri) ->
      Bgp.Message.{ withdrawn = []; attrs = Some attrs; nlri = List.rev nlri } :: acc
    | Withdraw_run ps ->
      Bgp.Message.{ withdrawn = List.rev ps; attrs = None; nlri = [] } :: acc
  in
  let rec walk acc run emissions =
    match emissions, run with
    | [], run -> List.rev (flush run acc)
    | Algorithm.Withdraw p :: rest, Withdraw_run ps ->
      walk acc (Withdraw_run (p :: ps)) rest
    | Algorithm.Withdraw p :: rest, run -> walk (flush run acc) (Withdraw_run [p]) rest
    | Algorithm.Announce (p, attrs) :: rest, Announce_run (cur_attrs, nlri)
      when Bgp.Attributes.equal attrs cur_attrs ->
      walk acc (Announce_run (cur_attrs, p :: nlri)) rest
    | Algorithm.Announce (p, attrs) :: rest, run ->
      walk (flush run acc) (Announce_run (attrs, [p])) rest
  in
  walk [] No_run emissions

let send_to_downstream (d : downstream) update =
  if Bgp.Session.state d.down_peer.session = Bgp.Session.Established then
    Bgp.Session.send_update d.down_peer.session update
  else d.down_pending <- update :: d.down_pending

let relay_emissions t emissions =
  Obs.Metrics.incr t.m_emissions ~by:(List.length emissions);
  Obs.Metrics.set t.m_groups_live (float_of_int (Backup_group.live_count t.groups));
  match updates_of_emissions emissions with
  | [] -> ()
  | updates ->
    let n_updates = List.length updates in
    List.iter
      (fun d ->
        Obs.Metrics.incr t.m_updates_sent ~by:n_updates;
        List.iter (fun u -> send_to_downstream d u) updates)
      (List.rev t.downstreams)

(* --- upstream update processing (decision process + Listing 1) -------- *)

let import_policy (up : upstream) (u : Bgp.Message.update) =
  match up.up_import_local_pref, u.attrs with
  | Some lp, Some attrs ->
    { u with Bgp.Message.attrs = Some { attrs with Bgp.Attributes.local_pref = Some lp } }
  | _ -> u

let peer_router_id (peer : Bgp.Speaker.peer) =
  match Bgp.Session.peer peer.session with
  | Some o -> o.Bgp.Message.router_id
  | None -> Net.Ipv4.any

(* --- failure handling (Listing 2 + retry ladder + slow path) ----------- *)

(* Bracket the failover's flow-mods with a barrier: the switch answers
   it only after every queued rule change has been applied, so the
   barrier reply timestamps the instant the data plane actually
   converged. The controller is no longer optimistic about that reply:
   each barrier is tracked, and a missing reply re-issues the rewrites
   idempotently with exponential backoff until, after [ack_max_retries]
   attempts, the controller degrades to the legacy path. *)
let rec send_tracked_barrier t ?failed ?down_at ~attempt () =
  match t.to_switch with
  | None -> ()
  | Some send ->
    let xid = t.next_xid in
    t.next_xid <- t.next_xid + 1;
    let pa =
      { pa_xid = xid; pa_failed = failed; pa_down_at = down_at;
        pa_attempt = attempt; pa_timer = None }
    in
    t.pending_acks <- pa :: t.pending_acks;
    let timeout = Sim.Time.mul t.ack_timeout (1 lsl min (attempt - 1) 16) in
    pa.pa_timer <-
      Some (Sim.Engine.schedule_after t.engine timeout (fun () ->
                handle_ack_timeout t pa));
    send (Openflow.Message.Barrier_request xid)

and handle_ack_timeout t pa =
  if List.memq pa t.pending_acks then begin
    t.pending_acks <- List.filter (fun p -> p != pa) t.pending_acks;
    Obs.Metrics.incr t.m_ack_timeouts;
    trace t "%s: barrier %d unanswered (attempt %d/%d)" t.name pa.pa_xid
      pa.pa_attempt ack_max_retries;
    if pa.pa_attempt < ack_max_retries then begin
      (* Re-issue the rewrites this barrier brackets. Every path is
         idempotent, so a retry that crosses an already-applied flow-mod
         is harmless. For a failover barrier the bracketed writes are
         the failed peer's group re-points; for an install/uninstall
         barrier (announcement-created rules, GC deletes) nothing
         identifies the individual writes, so the retry resyncs the
         whole table — otherwise a barrier retry that outlives the
         blackout is answered while the swallowed flow-mods stay lost
         for good. *)
      Obs.Metrics.incr t.m_rule_retries;
      (match pa.pa_failed with
      | Some ip ->
        ignore
          (Provisioner.reinstall_groups (provisioner_exn t)
             (Backup_group.with_member t.groups ip))
      | None ->
        ignore (Provisioner.resync (provisioner_exn t) (Backup_group.all t.groups)));
      send_tracked_barrier t ?failed:pa.pa_failed ?down_at:pa.pa_down_at
        ~attempt:(pa.pa_attempt + 1) ()
    end
    else enter_degraded t
  end

(* The switch has stopped answering: fall back to the legacy path. The
   algorithm re-announces every prefix with its best route's real next
   hop, so the downstream router converges through its own O(#prefixes)
   FIB — slower, but correct without any switch rule. Probes keep
   testing the switch; the first answered barrier triggers recovery. *)
and enter_degraded t =
  if t.mode = Supercharged then begin
    t.mode <- Degraded;
    Obs.Metrics.incr t.m_degradations;
    trace t "%s: switch unresponsive; degrading to the legacy path" t.name;
    relay_emissions t (Algorithm.set_passthrough t.algorithm t.rib true);
    if Option.is_none t.probe_task then
      t.probe_task <-
        Some
          (Sim.Engine.every t.engine ~interval:t.probe_interval (fun () ->
               send_tracked_barrier t ~attempt:ack_max_retries ()))
  end

and recover t =
  if t.mode = Degraded then begin
    t.mode <- Supercharged;
    Obs.Metrics.incr t.m_recoveries;
    (match t.probe_task with Some h -> Sim.Engine.cancel h | None -> ());
    t.probe_task <- None;
    (* Everything still pending belongs to the blackout epoch; a stale
       probe timing out after recovery must not re-degrade. *)
    List.iter
      (fun pa -> match pa.pa_timer with Some h -> Sim.Engine.cancel h | None -> ())
      t.pending_acks;
    t.pending_acks <- [];
    (* Rules first, announcements second: the router must never tag
       with a VMAC whose rule was eaten by the blackout. The resync
       covers every registered group — not only the referenced ones,
       since a linger-period rule must survive — and re-deletes retired
       VMACs whose uninstall the blackout may have swallowed. *)
    let reinstalled =
      Provisioner.resync (provisioner_exn t) (Backup_group.all t.groups)
    in
    relay_emissions t (Algorithm.set_passthrough t.algorithm t.rib false);
    trace t "%s: switch answering again; re-installed %d rules, supercharged mode"
      t.name reinstalled;
    (* Bracket the re-installation itself: if the switch goes dark again
       the ladder restarts from a fresh barrier. *)
    send_tracked_barrier t ~attempt:1 ()
  end

and handle_barrier_reply t xid =
  match List.find_opt (fun pa -> pa.pa_xid = xid) t.pending_acks with
  | None -> () (* stale or duplicated reply *)
  | Some pa ->
    t.pending_acks <- List.filter (fun p -> p != pa) t.pending_acks;
    (match pa.pa_timer with Some h -> Sim.Engine.cancel h | None -> ());
    (match pa.pa_down_at with
    | Some down_at ->
      let latency = Sim.Time.sub (Sim.Engine.now t.engine) down_at in
      Obs.Histogram.observe t.m_failover (Sim.Time.to_sec latency);
      trace t "%s: failover data plane converged %.3f ms after detection" t.name
        (Sim.Time.to_ms latency)
    | None -> ());
    if t.mode = Degraded then recover t

(* --- upstream update processing (decision process + Listing 1) -------- *)

let flow_mods_now t =
  match t.provisioner with Some p -> Provisioner.flow_mods_sent p | None -> 0

(* Every batch of switch writes is bracketed by a tracked barrier: if the
   switch (or the control channel) eats a flow-mod, the missing reply
   climbs the retry ladder, degrades the controller and the recovery
   resync repairs the table. Without this, a rule installed by a plain
   announcement — no failover, hence no failover barrier — could vanish
   silently. *)
let with_install_barrier t f =
  let before = flow_mods_now t in
  let r = f () in
  if flow_mods_now t > before then send_tracked_barrier t ~attempt:1 ();
  r

let adj_rib_of t ip =
  match Ip_table.find_opt t.adj_rib_in ip with
  | Some tbl -> tbl
  | None ->
    let tbl = Prefix_tbl.create 16 in
    Ip_table.replace t.adj_rib_in ip tbl;
    tbl

let record_adj_rib_in t (up : upstream) (u : Bgp.Message.update) =
  let adj = adj_rib_of t up.up_ip in
  List.iter (fun p -> Prefix_tbl.remove adj p) u.Bgp.Message.withdrawn;
  match u.Bgp.Message.attrs with
  | Some attrs ->
    List.iter (fun p -> Prefix_tbl.replace adj p attrs) u.Bgp.Message.nlri
  | None -> ()

let igp_cost_of t (attrs : Bgp.Attributes.t) =
  match t.igp_cost_fn with
  | Some cost_of -> cost_of attrs.Bgp.Attributes.next_hop
  | None -> 0

let handle_upstream_update t (up : upstream) update =
  t.updates_processed <- t.updates_processed + 1;
  Obs.Metrics.incr t.m_updates;
  let update = import_policy up update in
  record_adj_rib_in t up update;
  if List.exists (Net.Ipv4.equal up.up_ip) t.failed then
    (* BFD declared the peer down but its BGP session still delivered an
       update (the session does not reset on a data-plane failure).
       Applying it would route via a dead next hop; the Adj-RIB-In just
       recorded it and the recovery resync will apply it. *)
    ()
  else begin
    let igp_cost =
      match update.Bgp.Message.attrs with
      | Some attrs -> igp_cost_of t attrs
      | None -> 0
    in
    let changes =
      Bgp.Rib.apply_update t.rib ~peer_id:up.up_peer.id
        ~peer_router_id:(peer_router_id up.up_peer) ~igp_cost update
    in
    with_install_barrier t (fun () ->
        relay_emissions t (Algorithm.process_changes t.algorithm changes))
  end

(* Bring the RIB back in line with the peer's Adj-RIB-In after BFD saw
   the peer again. The slow path withdrew the peer's routes (or a
   debounced withdrawal was cancelled in time — then this is a no-op:
   [Rib.announce] ignores identical re-announcements), and the session
   never reset, so nothing else would ever re-send them. Equivalent to a
   route-refresh against the stored inbound state. *)
let resync_peer_routes t (up : upstream) =
  let adj = adj_rib_of t up.up_ip in
  let peer_id = up.up_peer.id in
  let stale =
    List.filter
      (fun p -> not (Prefix_tbl.mem adj p))
      (Bgp.Rib.peer_prefixes t.rib ~peer_id)
  in
  let withdrawals =
    List.filter_map (fun p -> Bgp.Rib.withdraw t.rib p ~peer_id) stale
  in
  (* Re-announced in ascending prefix order, as the stale set is, so
     Listing 1 sees the same change stream whatever the tables' layout. *)
  let announcements =
    Prefix_tbl.fold (fun prefix attrs acc -> (prefix, attrs) :: acc) adj []
    |> List.sort (fun (p, _) (q, _) -> Net.Prefix.compare p q)
    |> List.concat_map (fun (prefix, attrs) ->
           Bgp.Rib.apply_update t.rib ~peer_id
             ~peer_router_id:(peer_router_id up.up_peer)
             ~igp_cost:(igp_cost_of t attrs)
             { Bgp.Message.withdrawn = []; attrs = Some attrs; nlri = [ prefix ] })
  in
  match withdrawals @ announcements with
  | [] -> ()
  | changes ->
    with_install_barrier t (fun () ->
        relay_emissions t (Algorithm.process_changes t.algorithm changes))

(* The slow path is debounced: it only withdraws the peer's routes once
   the failure has persisted for [bfd_debounce]. A spurious BFD flap
   (Down immediately followed by Up) therefore costs two cheap rule
   re-points and zero RIB/BGP churn. *)
let run_slow_path t failed_ip =
  t.slow_path_waits <-
    List.filter (fun (ip, _) -> not (Net.Ipv4.equal ip failed_ip)) t.slow_path_waits;
  if List.exists (Net.Ipv4.equal failed_ip) t.failed then
    match
      List.find_opt (fun up -> Net.Ipv4.equal up.up_ip failed_ip) t.upstreams
    with
    | Some up ->
      with_install_barrier t (fun () ->
          relay_emissions t
            (Algorithm.process_peer_down t.algorithm t.rib ~peer_id:up.up_peer.id))
    | None -> ()
  else begin
    (* Recovered before the debounce fired without a cancellable wait:
       the flap is absorbed with the RIB untouched. *)
    Obs.Metrics.incr t.m_flaps_suppressed;
    trace t "%s: flap of %a absorbed; slow path skipped" t.name Net.Ipv4.pp
      failed_ip
  end

let handle_peer_failure t failed_ip =
  if not (List.exists (Net.Ipv4.equal failed_ip) t.failed) then begin
    t.failed <- failed_ip :: t.failed;
    let down_at = Sim.Engine.now t.engine in
    trace t "%s: peer %a failed; scheduling reroute" t.name Net.Ipv4.pp failed_ip;
    t.inflight_transitions <- t.inflight_transitions + 1;
    ignore
      (Sim.Engine.schedule_after t.engine reroute_latency (fun () ->
           t.inflight_transitions <- t.inflight_transitions - 1;
           (* Data-plane convergence first (Listing 2)... *)
           let flow_mods =
             Provisioner.fail_peer (provisioner_exn t) failed_ip
               (Backup_group.with_member t.groups failed_ip)
           in
           t.failovers <- t.failovers + 1;
           send_tracked_barrier t ~failed:failed_ip ~down_at ~attempt:1 ();
           trace t "%s: rerouted %d backup-groups away from %a" t.name flow_mods
             Net.Ipv4.pp failed_ip;
           (match t.failover_cb with
           | Some f -> f ~failed:failed_ip ~flow_mods
           | None -> ());
           (* ...then the slow path, debounced against flaps: withdraw
              the peer's routes so the router reconverges in the
              background. *)
           let wait =
             Sim.Engine.schedule_after t.engine t.bfd_debounce (fun () ->
                 run_slow_path t failed_ip)
           in
           t.slow_path_waits <- (failed_ip, wait) :: t.slow_path_waits))
  end

let handle_peer_recovery t revived_ip =
  if List.exists (Net.Ipv4.equal revived_ip) t.failed then begin
    t.failed <- List.filter (fun ip -> not (Net.Ipv4.equal ip revived_ip)) t.failed;
    (match
       List.find_opt (fun (ip, _) -> Net.Ipv4.equal ip revived_ip) t.slow_path_waits
     with
    | Some (_, wait) ->
      Sim.Engine.cancel wait;
      t.slow_path_waits <-
        List.filter
          (fun (ip, _) -> not (Net.Ipv4.equal ip revived_ip))
          t.slow_path_waits;
      Obs.Metrics.incr t.m_flaps_suppressed;
      trace t "%s: flap of %a suppressed within debounce" t.name Net.Ipv4.pp
        revived_ip
    | None -> ());
    trace t "%s: peer %a recovered; scheduling repair" t.name Net.Ipv4.pp revived_ip;
    t.inflight_transitions <- t.inflight_transitions + 1;
    ignore
      (Sim.Engine.schedule_after t.engine reroute_latency (fun () ->
           t.inflight_transitions <- t.inflight_transitions - 1;
           let p = provisioner_exn t in
           Provisioner.revive_peer p revived_ip;
           (* Re-point every group whose preferred member is alive again
              (the inverse of Listing 2)... *)
           with_install_barrier t (fun () ->
               List.iter
                 (fun binding ->
                   let preferred =
                     List.find_opt (Provisioner.is_alive p)
                       binding.Backup_group.next_hops
                   in
                   match preferred, Provisioner.selected p binding with
                   | Some want, Some got when not (Net.Ipv4.equal want got) ->
                     Provisioner.install_group p binding
                   | Some _, None -> Provisioner.install_group p binding
                   | _ -> ())
                 (Backup_group.with_member t.groups revived_ip));
           (* ...then restore the peer's routes from its Adj-RIB-In —
              rules first, announcements second. Covers both the routes
              the slow path withdrew and any update the session
              delivered while BFD had the peer down. *)
           match
             List.find_opt (fun up -> Net.Ipv4.equal up.up_ip revived_ip) t.upstreams
           with
           | Some up -> resync_peer_routes t up
           | None -> ()))
  end

(* --- switch interaction ------------------------------------------------ *)

let handle_packet_in t send_to_switch ~in_port (frame : Net.Ethernet.frame) =
  match frame.payload with
  | Net.Ethernet.Arp arp -> (
    match Arp_responder.handle t.groups arp with
    | Arp_responder.Reply reply ->
      let out =
        Net.Ethernet.make ~src:reply.Net.Arp.sender_mac ~dst:reply.Net.Arp.target_mac
          (Net.Ethernet.Arp reply)
      in
      send_to_switch
        (Openflow.Message.Packet_out
           { actions = [Openflow.Action.Output in_port]; frame = out })
    | Arp_responder.Flood ->
      send_to_switch
        (Openflow.Message.Packet_out { actions = [Openflow.Action.Flood]; frame })
    | Arp_responder.Ignore -> ())
  | Net.Ethernet.Ipv4 _ -> (
    (* Reactive fallback: a VMAC-tagged packet that raced ahead of its
       rule installation is forwarded by the controller itself. *)
    match Backup_group.find_by_vmac t.groups frame.dst with
    | Some binding -> (
      let p = provisioner_exn t in
      match Provisioner.selected p binding with
      | Some ip -> (
        match Provisioner.peer p ip with
        | Some info ->
          send_to_switch
            (Openflow.Message.Packet_out
               {
                 actions =
                   [
                     Openflow.Action.Set_dl_dst info.Provisioner.pi_mac;
                     Openflow.Action.Output info.Provisioner.pi_port;
                   ];
                 frame;
               })
        | None -> ())
      | None -> ())
    | None -> ())

let through_of_codec t msg =
  match Openflow.Codec.decode_exact (Openflow.Codec.encode msg) with
  | Ok decoded -> decoded
  | Error err ->
    invalid_arg
      (Fmt.str "%s: OpenFlow message failed codec round-trip: %a" t.name
         Net.Wire.pp_error err)

let connect_switch ?(use_codec = false) ?faults t switch =
  (* An injector on the OpenFlow control path sees both directions:
     flow-mods and barriers towards the switch, packet-ins and barrier
     replies back. Dropped flow-mods are what the retry ladder exists
     for; extra copies and delays exercise its idempotence. *)
  let with_faults f =
    match faults with
    | None -> f
    | Some injector ->
      fun msg ->
        (match Sim.Faults.plan injector with
        | Sim.Faults.Drop -> ()
        | Sim.Faults.Deliver extras ->
          List.iter
            (fun extra ->
              if Sim.Time.equal extra Sim.Time.zero then f msg
              else
                ignore
                  (Sim.Engine.schedule_after t.engine extra (fun () -> f msg)))
            extras)
  in
  let send_ref = ref (fun _ -> ()) in
  let from_switch msg =
    let msg = if use_codec then through_of_codec t msg else msg in
    match msg with
    | Openflow.Message.Packet_in { in_port; frame } ->
      handle_packet_in t !send_ref ~in_port frame
    | Openflow.Message.Barrier_reply xid -> handle_barrier_reply t xid
    | Openflow.Message.Hello | Openflow.Message.Echo_request _
    | Openflow.Message.Echo_reply _ | Openflow.Message.Features_request
    | Openflow.Message.Features_reply _ | Openflow.Message.Flow_mod _
    | Openflow.Message.Packet_out _ | Openflow.Message.Barrier_request _ ->
      ()
  in
  let raw_send =
    Openflow.Switch.connect_controller switch (with_faults from_switch)
  in
  let send =
    with_faults (fun msg ->
        raw_send (if use_codec then through_of_codec t msg else msg))
  in
  send_ref := send;
  t.to_switch <- Some send;
  let provisioner = Provisioner.create ~metrics:(Sim.Engine.metrics t.engine) ~send () in
  t.provisioner <- Some provisioner;
  (* Rules must exist before the router can tag traffic with a fresh
     VMAC: installation is triggered directly by group creation. *)
  Backup_group.on_create t.groups (fun binding ->
      Provisioner.install_group provisioner binding);
  (* Groups nobody references any more are garbage-collected after a
     linger period. The linger matters: the router keeps tagging with
     the old VMAC until its own FIB catches up with the slow-path
     re-announcements, so the rule must outlive the reference by a
     grace interval rather than vanish immediately. A group re-acquired
     while idle survives ([destroy] refuses). *)
  Backup_group.on_idle t.groups (fun binding ->
      ignore
        (Sim.Engine.schedule_after t.engine t.group_linger (fun () ->
             if Backup_group.destroy t.groups binding then begin
               Provisioner.uninstall_group provisioner binding;
               (* Track the delete like any other write: a blackout that
                  eats it would otherwise leave the stale VMAC rule
                  installed forever (resync re-deletes retired VMACs). *)
               send_tracked_barrier t ~attempt:1 ();
               Obs.Metrics.set t.m_groups_live
                 (float_of_int (Backup_group.live_count t.groups));
               trace t "%s: collected idle group %a" t.name Backup_group.pp_binding
                 binding
             end)))

let attach_dataplane t endhost =
  t.dataplane <- Some endhost;
  Router.Endhost.on_udp endhost (fun ~src (u : Net.Udp.t) ->
      if u.dst_port = Bfd.Packet.udp_port then
        match Ip_table.find_opt t.bfd_sessions src with
        | Some session -> (
          match Bfd.Packet.decode u.payload with
          | Ok pkt -> Bfd.Session.receive session pkt
          | Error _ -> ())
        | None -> ())

let add_upstream_peer t ~name ~ip ~mac ~switch_port ~channel ~side
    ?import_local_pref () =
  let peer = Bgp.Speaker.add_peer t.speaker ~name ~channel ~side in
  let up = { up_peer = peer; up_ip = ip; up_import_local_pref = import_local_pref } in
  t.upstreams <- up :: t.upstreams;
  (match t.provisioner with
  | Some p ->
    Provisioner.declare_peer p { Provisioner.pi_ip = ip; pi_mac = mac; pi_port = switch_port }
  | None -> invalid_arg (t.name ^ ": connect_switch before add_upstream_peer"));
  peer

let add_router t ~name ~channel ~side =
  let peer = Bgp.Speaker.add_peer t.speaker ~name ~channel ~side in
  let d = { down_peer = peer; down_pending = [] } in
  t.downstreams <- d :: t.downstreams;
  peer

let setup_callbacks t =
  Bgp.Speaker.on_update t.speaker (fun peer update ->
      match List.find_opt (fun up -> up.up_peer.id = peer.id) t.upstreams with
      | Some up -> handle_upstream_update t up update
      | None -> () (* updates from routers are not expected *));
  Bgp.Speaker.on_peer_down t.speaker (fun peer _reason ->
      match List.find_opt (fun up -> up.up_peer.id = peer.id) t.upstreams with
      | Some up -> handle_peer_failure t up.up_ip
      | None -> ());
  Bgp.Speaker.on_peer_established t.speaker (fun peer ->
      match List.find_opt (fun d -> d.down_peer.id = peer.id) t.downstreams with
      | Some d ->
        let pending = List.rev d.down_pending in
        d.down_pending <- [];
        List.iter (fun u -> Bgp.Session.send_update d.down_peer.session u) pending
      | None -> ())

let enable_bfd t =
  match t.dataplane with
  | None -> ()
  | Some endhost ->
    List.iter
      (fun up ->
        if not (Ip_table.mem t.bfd_sessions up.up_ip) then begin
          let discriminator = Int32.of_int (Ip_table.length t.bfd_sessions + 1) in
          let send pkt =
            Router.Endhost.send_udp endhost ~dst:up.up_ip
              ~src_port:(49152 + Int32.to_int discriminator)
              ~dst_port:Bfd.Packet.udp_port (Bfd.Packet.encode pkt)
          in
          let session =
            Bfd.Session.create t.engine
              ~name:(Fmt.str "%s-bfd-%a" t.name Net.Ipv4.pp up.up_ip)
              ~local_discriminator:discriminator ~tx_interval:t.bfd_tx_interval ~send ()
          in
          Ip_table.replace t.bfd_sessions up.up_ip session;
          let ip = up.up_ip in
          Bfd.Session.on_state_change session (fun state _diag ->
              match state with
              | Bfd.Packet.Down ->
                if Bfd.Session.packets_received session > 0 then
                  handle_peer_failure t ip
              | Bfd.Packet.Up -> handle_peer_recovery t ip
              | Bfd.Packet.Init | Bfd.Packet.Admin_down -> ());
          Bfd.Session.enable session
        end)
      t.upstreams

let arp_punt_rule =
  Openflow.Flow_table.flow_mod ~priority:200 Openflow.Flow_table.Add
    (Openflow.Ofmatch.make ~dl_type:0x0806 ~nw_proto:1 ())
    [Openflow.Action.To_controller]

let start t =
  if not t.started then begin
    t.started <- true;
    setup_callbacks t;
    (match t.to_switch with
    | Some send ->
      (* The ARP punt rule makes every ARP request visible to the
         responder; replies keep flowing through the plain L2 rules. *)
      send (Openflow.Message.Flow_mod arp_punt_rule)
    | None -> invalid_arg (t.name ^ ": connect_switch before start"));
    Bgp.Speaker.start t.speaker;
    enable_bfd t
  end

let rib t = t.rib
let groups t = t.groups
let algorithm t = t.algorithm
let provisioner t = provisioner_exn t
let mode t = t.mode
let degraded t = t.mode = Degraded
let bfd_session t ip = Ip_table.find_opt t.bfd_sessions ip

let quiescent t =
  t.mode = Supercharged
  && t.pending_acks = []
  && t.slow_path_waits = []
  && t.inflight_transitions = 0

let set_igp_cost_fn t f = t.igp_cost_fn <- Some f

let on_failover t f = t.failover_cb <- Some f
let failovers_handled t = t.failovers
let updates_processed t = t.updates_processed
