module Prefix_table = Hashtbl.Make (Net.Prefix)

type mode =
  | Plain
  | Supercharged of { replicas : int }

let pp_mode ppf = function
  | Plain -> Fmt.string ppf "non-supercharged"
  | Supercharged { replicas = 1 } -> Fmt.string ppf "supercharged"
  | Supercharged { replicas } -> Fmt.pf ppf "supercharged(x%d)" replicas

type traffic =
  | Event_driven
  | Dense

type failure =
  | Fail_primary
  | Fail_backup
  | Fail_two of Sim.Time.t

let pp_failure ppf = function
  | Fail_primary -> Fmt.string ppf "fail-primary"
  | Fail_backup -> Fmt.string ppf "fail-backup"
  | Fail_two d -> Fmt.pf ppf "fail-two(+%a)" Sim.Time.pp d

type params = {
  mode : mode;
  n_prefixes : int;
  n_peers : int;
  group_size : int;
  failure : failure;
  monitored_flows : int;
  seed : int64;
  bfd_detect_mult : int;
  bfd_tx_interval : Sim.Time.t;
  fib_batch_start : Sim.Time.t;
  fib_per_entry : Sim.Time.t;
  flow_mod_latency : Sim.Time.t;
  reroute_latency : Sim.Time.t;
  grid : Sim.Time.t;
  traffic : traffic;
  feed_batch : int;
  feed_interval : Sim.Time.t;
  trace : bool;
  pcap : string option;
  bgp_wire : bool;
}

let default_params ?(mode = Plain) ~n_prefixes () =
  {
    mode;
    n_prefixes;
    n_peers = 2;
    group_size = 2;
    failure = Fail_primary;
    monitored_flows = 100;
    seed = 42L;
    bfd_detect_mult = 3;
    bfd_tx_interval = Sim.Time.of_ms 40;
    fib_batch_start = Sim.Time.of_ms 280;
    fib_per_entry = Sim.Time.of_us 281;
    flow_mod_latency = Sim.Time.of_ms 2;
    reroute_latency = Sim.Time.of_ms 25;
    grid = Trafficgen.Flow.grid_default;
    traffic = Event_driven;
    feed_batch = 500;
    feed_interval = Sim.Time.of_ms 1;
    trace = false;
    pcap = None;
    bgp_wire = false;
  }

type result = {
  r_params : params;
  t_fail : Sim.Time.t;
  convergence : Sim.Time.t option array;
  outages : Sim.Time.t list array;
      (* every straddling gap per flow; > 1 entry under [Fail_two] *)
  flow_mods_at_failover : int;
  backup_groups : int;
  updates_processed : int;
  fib_writes : int;
  events : int;
  probes : int;
  replica_digests : string list;
  trace_entries : Sim.Trace.entry list;
  metrics : Obs.Metrics.t;
}

let convergence_seconds r =
  Array.map
    (function
      | Some t -> Sim.Time.to_sec t
      | None -> failwith "Topology.convergence_seconds: unrecovered flow")
    r.convergence

let pp_result ppf r =
  let recovered =
    Array.to_list r.convergence |> List.filter_map Fun.id |> List.map Sim.Time.to_sec
  in
  Fmt.pf ppf "@[<v>%a %d prefixes: %d/%d flows recovered" pp_mode r.r_params.mode
    r.r_params.n_prefixes (List.length recovered)
    (Array.length r.convergence);
  if recovered <> [] then begin
    let s = Stats.summarize (Array.of_list recovered) in
    Fmt.pf ppf "; convergence %a" Stats.pp_summary s
  end;
  Fmt.pf ppf "; %d flow-mods at failover, %d groups, %d fib writes@]"
    r.flow_mods_at_failover r.backup_groups r.fib_writes

(* --- address plan: R1's traffic side (the rest is Lab's) -------------- *)

let mac_r1_src = Net.Mac.of_string_exn "00:aa:00:00:00:02"
let mac_source = Net.Mac.of_string_exn "00:dd:00:00:00:01"
let ip_r1_src = Net.Ipv4.of_octets 192 168 0 1
let ip_source = Net.Ipv4.of_octets 192 168 0 100

(* --- helpers ------------------------------------------------------------ *)

let run_until engine ~timeout ~step pred =
  let deadline = Sim.Time.add (Sim.Engine.now engine) timeout in
  let rec loop () =
    if pred () then true
    else if Sim.Time.(Sim.Engine.now engine >= deadline) then pred ()
    else begin
      let horizon = Sim.Time.min deadline (Sim.Time.add (Sim.Engine.now engine) step) in
      Sim.Engine.run ~until:horizon engine;
      loop ()
    end
  in
  loop ()

(* Picks the monitored destinations: [n] distinct prefixes at random,
   always including the first and the last advertised prefix (§4), with
   a random host offset inside each. *)
let pick_flows rng (entries : Workloads.Rib_gen.entry array) n =
  let count = Array.length entries in
  let n = min n count in
  let indices = Array.init count Fun.id in
  Sim.Rng.shuffle rng indices;
  let chosen = Array.sub indices 0 n in
  if n >= 1 then chosen.(0) <- 0;
  if n >= 2 then chosen.(1) <- count - 1;
  (* Re-deduplicate in case the shuffle already placed 0 or count-1. *)
  let seen = Hashtbl.create (2 * n) in
  let next_fresh = ref 0 in
  Array.iteri
    (fun slot idx ->
      let idx = ref idx in
      while Hashtbl.mem seen !idx do
        while Hashtbl.mem seen !next_fresh do incr next_fresh done;
        idx := !next_fresh
      done;
      Hashtbl.replace seen !idx ();
      chosen.(slot) <- !idx)
    chosen;
  Array.mapi
    (fun flow_index entry_index ->
      let prefix = entries.(entry_index).Workloads.Rib_gen.prefix in
      let span = min (Net.Prefix.size prefix) 256 in
      let offset = if span <= 1 then 0 else Sim.Rng.int rng span in
      ({ Trafficgen.Flow.index = flow_index; dst = Net.Prefix.nth prefix offset }, prefix))
    chosen

(* --- the lab ------------------------------------------------------------ *)

let run params =
  if params.n_peers < 2 || params.n_peers > 8 then
    invalid_arg "Topology.run: n_peers must be in 2..8";
  (match params.failure with
  | Fail_two _ when params.n_peers < 3 ->
    invalid_arg "Topology.run: Fail_two needs at least 3 peers"
  | Fail_two _ | Fail_primary | Fail_backup -> ());
  let engine = Sim.Engine.create ~seed:params.seed () in
  Sim.Trace.set_enabled (Sim.Engine.trace engine) params.trace;
  let rng = Sim.Rng.create ~seed:(Int64.add params.seed 1L) in
  let entries = Workloads.Rib_gen.generate ~seed:params.seed ~count:params.n_prefixes in

  (* R1 under test: its uplink to the switch, and a second interface
     towards the traffic source. *)
  let n_peers = params.n_peers in
  let r1 =
    Router.Legacy.create engine ~name:"r1" ~asn:Lab.asn_r1 ~router_id:Lab.ip_r1
      ~interfaces:
        [
          Lab.r1_uplink;
          {
            Router.Legacy.if_mac = mac_r1_src;
            if_ip = ip_r1_src;
            if_connected = Net.Prefix.make (Net.Ipv4.of_octets 192 168 0 0) 24;
          };
        ]
      ~fib_batch_start_latency:params.fib_batch_start
      ~fib_per_entry_latency:params.fib_per_entry ()
  in
  let lab =
    Lab.create engine ~flow_mod_latency:params.flow_mod_latency
      ~bgp_wire:params.bgp_wire ~bfd_detect_mult:params.bfd_detect_mult
      ~bfd_tx_interval:params.bfd_tx_interval
      ~controller:(fun create ->
        create ~group_size:params.group_size ~reroute_latency:params.reroute_latency
          ~bfd_detect_mult:params.bfd_detect_mult
          ~bfd_tx_interval:params.bfd_tx_interval ())
      ~r1 ~n_peers
      ~replicas:(match params.mode with Plain -> 0 | Supercharged { replicas } -> replicas)
      ()
  in
  let switch = lab.Lab.switch and peers = lab.Lab.peers in
  (* ARP floods, so that plain-mode R1 can resolve its providers; a
     controller's punt rule overrides this at higher priority. *)
  Openflow.Flow_table.apply (Openflow.Switch.table switch)
    (Openflow.Flow_table.flow_mod ~priority:50 Openflow.Flow_table.Add
       (Openflow.Ofmatch.make ~dl_type:0x0806 ())
       [Openflow.Action.Flood]);
  let link_src = Net.Link.create engine ~name:"src-r1" () in
  Router.Legacy.connect_interface r1 1 link_src Net.Link.B;

  (* Optional capture: a physical-layer tap on R1's uplink, written as a
     Wireshark-readable nanosecond pcap. *)
  let pcap_writer =
    Option.map
      (fun path ->
        let w = Net.Pcap.create_file path in
        Option.iter (Net.Pcap.tap_link w) lab.Lab.r1_link;
        w)
      params.pcap
  in

  (* Plain mode: R1 peers with the providers and runs BFD to them
     itself. *)
  if params.mode = Plain then
    Array.iteri
      (fun i peer ->
        let ch =
          Lab.bgp_channel ~bgp_wire:params.bgp_wire engine (Fmt.str "r1-r%d" (2 + i))
        in
        let r1_peer =
          Router.Legacy.add_bgp_peer r1
            ~name:(Router.Peer.name peer)
            ~channel:ch ~side:Bgp.Channel.A
            ~import_local_pref:(Lab.local_pref_of_peer i) ()
        in
        ignore (Router.Peer.add_bgp_peer peer ~name:"r1" ~channel:ch ~side:Bgp.Channel.B ());
        ignore
          (Router.Legacy.enable_bfd r1 ~peer:r1_peer ~remote_ip:(Lab.ip_peer i)
             ~interface:0 ~detect_mult:params.bfd_detect_mult
             ~tx_interval:params.bfd_tx_interval ()))
      peers;
  Lab.start lab;
  let controllers =
    Array.to_list (Array.map (fun r -> r.Lab.controller) lab.Lab.replicas)
  in

  (* Let sessions establish. *)
  let sessions_up () =
    Bgp.Speaker.established_count (Router.Legacy.speaker r1)
    = if controllers = [] then n_peers else List.length controllers
  in
  if
    not
      (run_until engine ~timeout:(Sim.Time.of_sec 10.0) ~step:(Sim.Time.of_ms 100)
         sessions_up)
  then failwith "Topology.run: BGP sessions failed to establish";

  (* Load the feeds sequentially, most-preferred peer first, every peer
     advertising the same table (the paper loads R2 and R3 with the same
     RIS feed). *)
  let feeds_done = ref false in
  let rec replay_peer i =
    if i >= n_peers then feeds_done := true
    else
      let updates =
        Workloads.Rib_gen.to_updates entries ~speaker_asn:(Lab.asn_peer i)
          ~next_hop:(Lab.ip_peer i)
      in
      Workloads.Feed.replay engine ~updates ~batch:params.feed_batch
        ~interval:params.feed_interval
        ~on_done:(fun () -> replay_peer (i + 1))
        ~send:(fun u -> Router.Peer.announce_to_all peers.(i) u)
        ()
  in
  replay_peer 0;

  (* Wait for the control plane and the FIB update engine to settle. *)
  let fib = Router.Legacy.fib r1 in
  let settled () =
    !feeds_done
    && Router.Fib.pending fib = 0
    && (not (Router.Fib.is_busy fib))
    && Router.Fib.size fib = params.n_prefixes
    && Openflow.Switch.pending_flow_mods switch = 0
  in
  let load_timeout =
    (* Feed transfer + up to two full serialized FIB passes + slack. *)
    Sim.Time.add
      (Sim.Time.mul params.fib_per_entry (max 1 (2 * params.n_prefixes)))
      (Sim.Time.of_sec 30.0)
  in
  if not (run_until engine ~timeout:load_timeout ~step:(Sim.Time.of_sec 1.0) settled)
  then
    failwith
      (Fmt.str "Topology.run: initial load did not settle (fib=%d/%d pending=%d)"
         (Router.Fib.size fib) params.n_prefixes (Router.Fib.pending fib));

  (* Traffic: source on R1's second interface, sink behind the peers. *)
  let flows_with_prefixes = pick_flows rng entries params.monitored_flows in
  let flows = Array.map fst flows_with_prefixes in
  let sink = Trafficgen.Sink.create engine ~flows in
  Array.iter
    (fun peer ->
      Router.Peer.on_delivery peer (fun p -> Trafficgen.Sink.deliver_packet sink p))
    peers;
  let send_probe (flow : Trafficgen.Flow.t) =
    let packet =
      Net.Ipv4_packet.udp ~src:ip_source ~dst:flow.Trafficgen.Flow.dst ~src_port:5001
        ~dst_port:(10000 + flow.Trafficgen.Flow.index)
        (String.make Trafficgen.Flow.payload_size_default 'x')
    in
    Net.Link.send link_src Net.Link.A
      (Net.Ethernet.make ~src:mac_source ~dst:mac_r1_src (Net.Ethernet.Ipv4 packet))
  in
  let monitor =
    Trafficgen.Monitor.create engine ~grid:params.grid ~sink ~send:send_probe ~flows ()
  in
  let source =
    Trafficgen.Source.create engine ~grid:params.grid ~flows
      ~send:(fun flow -> Trafficgen.Monitor.inject monitor flow.Trafficgen.Flow.index)
      ()
  in

  (* Event hooks for the event-driven monitor: exact prefix -> flow map
     keyed on the advertised prefixes (O(1) per FIB write). *)
  (match params.traffic with
  | Event_driven ->
    let by_prefix = Prefix_table.create (Array.length flows * 2) in
    Array.iter
      (fun (flow, prefix) -> Prefix_table.replace by_prefix prefix flow)
      flows_with_prefixes;
    Router.Fib.on_applied fib (fun op ->
        let prefix =
          match op with Router.Fib.Set (p, _) -> p | Router.Fib.Remove p -> p
        in
        match Prefix_table.find_opt by_prefix prefix with
        | Some (flow : Trafficgen.Flow.t) ->
          Trafficgen.Monitor.probe_flow monitor flow.Trafficgen.Flow.index
        | None -> ());
    Openflow.Switch.on_flow_mod_applied switch (fun _fm ->
        Trafficgen.Monitor.probe_all monitor)
  | Dense -> ());

  (* Baseline: confirm every flow is reachable before the failure. *)
  (match params.traffic with
  | Event_driven -> Trafficgen.Monitor.probe_all monitor
  | Dense -> Trafficgen.Source.start source);
  let baseline_start = Sim.Engine.now engine in
  if
    not
      (run_until engine ~timeout:(Sim.Time.of_sec 5.0) ~step:(Sim.Time.of_ms 10)
         (fun () -> Trafficgen.Monitor.all_alive_since monitor baseline_start))
  then failwith "Topology.run: flows not reachable before failure";

  (* Clean slate for gap statistics, then inject the failure(s). *)
  Trafficgen.Sink.reset_gaps sink;
  let t_fail = Sim.Time.add (Sim.Engine.now engine) (Sim.Time.of_ms 50) in
  Trafficgen.Monitor.arm_failure monitor ~at:t_fail;
  let failure_instants =
    match params.failure with
    | Fail_primary -> [(0, t_fail)]
    | Fail_backup -> [(n_peers - 1, t_fail)]
    | Fail_two delay -> [(0, t_fail); (1, Sim.Time.add t_fail delay)]
  in
  List.iter
    (fun (peer_idx, at) ->
      (match params.traffic with
      | Event_driven ->
        Trafficgen.Monitor.window monitor
          ~from_:(Sim.Time.sub at (Sim.Time.of_ms 2))
          ~until:(Sim.Time.add at (Sim.Time.of_ms 2))
      | Dense -> ());
      ignore
        (Sim.Engine.schedule_at engine at (fun () ->
             Net.Link.set_up lab.Lab.peer_links.(peer_idx) false)))
    failure_instants;
  let last_failure =
    List.fold_left (fun acc (_, at) -> Sim.Time.max acc at) t_fail failure_instants
  in

  (* Run until every flow has recovered from the last failure. *)
  let recovery_timeout =
    Sim.Time.add
      (Sim.Time.mul params.fib_per_entry (max 1 (3 * params.n_prefixes)))
      (Sim.Time.add (Sim.Time.sub last_failure t_fail) (Sim.Time.of_sec 30.0))
  in
  let recovered () = Trafficgen.Monitor.all_alive_since monitor last_failure in
  ignore (run_until engine ~timeout:recovery_timeout ~step:(Sim.Time.of_sec 1.0) recovered);
  (match params.traffic with
  | Dense -> Trafficgen.Source.stop source
  | Event_driven ->
    (* Final sweep so stragglers get one more chance to prove recovery. *)
    Trafficgen.Monitor.probe_all monitor;
    Sim.Engine.run ~until:(Sim.Time.add (Sim.Engine.now engine) (Sim.Time.of_ms 50)) engine);

  let convergence =
    Array.map
      (fun (flow : Trafficgen.Flow.t) ->
        Trafficgen.Monitor.convergence monitor ~failed_at:t_fail
          flow.Trafficgen.Flow.index)
      flows
  in
  let outages =
    Array.map
      (fun (flow : Trafficgen.Flow.t) ->
        Trafficgen.Monitor.outages monitor flow.Trafficgen.Flow.index)
      flows
  in
  let flow_mods_at_failover, backup_groups =
    match controllers with
    | [] -> (0, 0)
    | c :: _ ->
      ( Supercharger.Provisioner.flow_mods_sent (Supercharger.Controller.provisioner c),
        Supercharger.Backup_group.count (Supercharger.Controller.groups c) )
  in
  let replica_digests =
    List.map
      (fun c ->
        let groups = Supercharger.Controller.groups c in
        let prov = Supercharger.Controller.provisioner c in
        String.concat ";"
          (List.map
             (fun (b : Supercharger.Backup_group.binding) ->
               Fmt.str "%a->%a"
                 Supercharger.Backup_group.pp_binding b
                 Fmt.(option Net.Ipv4.pp)
                 (Supercharger.Provisioner.selected prov b))
             (Supercharger.Backup_group.all groups)))
      controllers
  in
  Option.iter Net.Pcap.close pcap_writer;
  {
    r_params = params;
    t_fail;
    convergence;
    outages;
    flow_mods_at_failover;
    backup_groups;
    updates_processed =
      List.fold_left
        (fun acc c -> acc + Supercharger.Controller.updates_processed c)
        0 controllers;
    fib_writes = Router.Fib.applied_count fib;
    events = Sim.Engine.events_processed engine;
    probes = Trafficgen.Monitor.probes_sent monitor;
    replica_digests;
    trace_entries =
      (if params.trace then Sim.Trace.entries (Sim.Engine.trace engine) else []);
    metrics = Sim.Engine.metrics engine;
  }
