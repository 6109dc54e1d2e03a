type interface_config = {
  if_mac : Net.Mac.t;
  if_ip : Net.Ipv4.t;
  if_connected : Net.Prefix.t;
}

type interface = {
  index : int;
  mac : Net.Mac.t;
  ip : Net.Ipv4.t;
  connected : Net.Prefix.t;
  mutable tx : (Net.Ethernet.frame -> unit) option;
}

module Ip_table = Hashtbl.Make (struct
  type t = Net.Ipv4.t

  let equal = Net.Ipv4.equal
  let hash = Net.Ipv4.hash
end)

type t = {
  engine : Sim.Engine.t;
  name : string;
  interfaces : interface array;
  fib : Fib.t;
  arp : Arp_cache.t;
  speaker : Bgp.Speaker.t;
  rib : Bgp.Rib.t;
  bfd_by_remote : Bfd.Session.t Ip_table.t;
  mutable failure_cb : (Bgp.Speaker.peer -> unit) option;
  mutable import_local_pref : (int * int) list; (* peer_id, local_pref *)
  mutable fail_peer : Bgp.Speaker.peer -> unit;
  mutable failed_peers : int list;
  mutable forwarded : int;
  mutable no_route : int;
  mutable ttl_expired : int;
}

let trace t fmt =
  Sim.Trace.emitf (Sim.Engine.trace t.engine) (Sim.Engine.now t.engine)
    ~category:"router" fmt

let transmit t index frame =
  match t.interfaces.(index).tx with Some f -> f frame | None -> ()

let interface_for_next_hop t nh =
  (* The interface whose connected subnet contains the next hop;
     defaults to interface 0 (our labs are single-homed that way). *)
  match
    Array.find_opt (fun i -> Net.Prefix.mem nh i.connected) t.interfaces
  with
  | Some i -> i.index
  | None -> 0

(* Per-packet data-plane transit time. *)
let forward_latency = Sim.Time.of_us 10

let create engine ~name ~asn ~router_id ~interfaces ?fib_batch_start_latency
    ?fib_per_entry_latency () =
  if interfaces = [] then invalid_arg "Router.create: no interfaces";
  let interfaces =
    Array.of_list
      (List.mapi
         (fun index c ->
           { index; mac = c.if_mac; ip = c.if_ip; connected = c.if_connected; tx = None })
         interfaces)
  in
  let tx_holder = ref (fun ~interface:_ _ -> ()) in
  let send_arp_request ~interface ~target =
    !tx_holder ~interface
      (Net.Ethernet.make ~src:interfaces.(interface).mac ~dst:Net.Mac.broadcast
         (Net.Ethernet.Arp
            (Net.Arp.request ~sender_mac:interfaces.(interface).mac
               ~sender_ip:interfaces.(interface).ip ~target_ip:target)))
  in
  let t =
    {
      engine;
      name;
      interfaces;
      fib =
        Fib.create engine ~name:(name ^ ".fib") ?batch_start_latency:fib_batch_start_latency
          ?per_entry_latency:fib_per_entry_latency ();
      arp = Arp_cache.create engine ~name:(name ^ ".arp") ~send_request:send_arp_request ();
      speaker = Bgp.Speaker.create engine ~name ~asn ~router_id ();
      rib = Bgp.Rib.create ();
      bfd_by_remote = Ip_table.create 8;
      failure_cb = None;
      import_local_pref = [];
      fail_peer = (fun _ -> ());
      failed_peers = [];
      forwarded = 0;
      no_route = 0;
      ttl_expired = 0;
    }
  in
  tx_holder := (fun ~interface frame -> transmit t interface frame);
  (* RIB -> FIB plumbing. Removals need no ARP resolution, so a change
     set's removals (the entirety of a peer-down batch) download as one
     FIB batch under a single batch-start latency; Set ops still go
     through asynchronous next-hop resolution one by one. *)
  let handle_changes changes =
    Fib.enqueue_batch t.fib
      (List.filter_map
         (fun (change : Bgp.Rib.change) ->
           match change.before, change.after with
           | _ :: _, [] -> Some (Fib.Remove change.prefix)
           | _ -> None)
         changes);
    List.iter
      (fun (change : Bgp.Rib.change) ->
        let old_nh =
          match change.before with r :: _ -> Some (Bgp.Route.next_hop r) | [] -> None
        in
        let new_nh =
          match change.after with r :: _ -> Some (Bgp.Route.next_hop r) | [] -> None
        in
        match new_nh with
        | None -> ()
        | Some nh ->
          let changed =
            match old_nh with Some o -> not (Net.Ipv4.equal o nh) | None -> true
          in
          if changed then begin
            let interface = interface_for_next_hop t nh in
            (* ARP resolution is asynchronous; by the time it completes
               the best route may have moved on. Writing the entry only
               if this next hop is still current prevents a stale
               resolution from overwriting a newer route (real FIB
               downloads resolve against the current RIB too). *)
            Arp_cache.resolve t.arp ~interface nh (fun mac ->
                match Bgp.Rib.best t.rib change.prefix with
                | Some current when Net.Ipv4.equal (Bgp.Route.next_hop current) nh ->
                  Fib.enqueue t.fib
                    (Fib.Set (change.prefix, Adjacency.make ~interface ~mac))
                | Some _ | None -> ())
          end)
      changes
  in
  let peer_router_id (peer : Bgp.Speaker.peer) =
    match Bgp.Session.peer peer.session with
    | Some o -> o.Bgp.Message.router_id
    | None -> Net.Ipv4.any
  in
  Bgp.Speaker.on_update t.speaker (fun peer update ->
      if not (List.mem peer.id t.failed_peers) then begin
        let update =
          match List.assoc_opt peer.id t.import_local_pref, update.Bgp.Message.attrs with
          | Some lp, Some attrs ->
            { update with
              Bgp.Message.attrs =
                Some { attrs with Bgp.Attributes.local_pref = Some lp } }
          | _ -> update
        in
        handle_changes
          (Bgp.Rib.apply_update t.rib ~peer_id:peer.id
             ~peer_router_id:(peer_router_id peer) update)
      end);
  let fail_peer (peer : Bgp.Speaker.peer) =
    if not (List.mem peer.id t.failed_peers) then begin
      t.failed_peers <- peer.id :: t.failed_peers;
      trace t "%s: peer %s failed, withdrawing its routes" t.name peer.peer_name;
      handle_changes (Bgp.Rib.withdraw_peer t.rib ~peer_id:peer.id);
      match t.failure_cb with Some f -> f peer | None -> ()
    end
  in
  t.fail_peer <- fail_peer;
  Bgp.Speaker.on_peer_down t.speaker (fun peer _reason -> fail_peer peer);
  t

let name t = t.name
let speaker t = t.speaker
let fib t = t.fib

let local_deliver t (p : Net.Ipv4_packet.t) =
  match p.payload with
  | Net.Ipv4_packet.Udp u when u.Net.Udp.dst_port = Bfd.Packet.udp_port -> (
    match Ip_table.find_opt t.bfd_by_remote p.src with
    | Some session -> (
      match Bfd.Packet.decode u.Net.Udp.payload with
      | Ok pkt -> Bfd.Session.receive session pkt
      | Error _ -> ())
    | None -> ())
  | Net.Ipv4_packet.Udp _ | Net.Ipv4_packet.Raw _ -> ()

(* FIB lookup + TTL + L2 rewrite, shared by the single-packet and
   batched paths; returns the egress interface and rewritten frame, or
   None with the right counter bumped. *)
let route_packet t (p : Net.Ipv4_packet.t) =
  match Fib.lookup t.fib p.dst with
  | None ->
    t.no_route <- t.no_route + 1;
    None
  | Some adj -> (
    match Net.Ipv4_packet.decrement_ttl p with
    | None ->
      t.ttl_expired <- t.ttl_expired + 1;
      None
    | Some p' ->
      t.forwarded <- t.forwarded + 1;
      Some
        ( adj.Adjacency.interface,
          Net.Ethernet.make
            ~src:t.interfaces.(adj.Adjacency.interface).mac
            ~dst:adj.Adjacency.mac (Net.Ethernet.Ipv4 p') ))

let forward t (p : Net.Ipv4_packet.t) =
  match route_packet t p with
  | None -> ()
  | Some (interface, out) ->
    ignore
      (Sim.Engine.schedule_after t.engine forward_latency (fun () ->
           transmit t interface out))

let receive t ~interface (frame : Net.Ethernet.frame) =
  let iface = t.interfaces.(interface) in
  let for_me = Net.Mac.equal frame.dst iface.mac || Net.Mac.is_broadcast frame.dst in
  if for_me then
    match frame.payload with
    | Net.Ethernet.Arp a -> (
      Arp_cache.learn t.arp a.sender_ip a.sender_mac;
      match a.op with
      | Net.Arp.Request when Net.Ipv4.equal a.target_ip iface.ip ->
        let reply = Net.Arp.reply a ~sender_mac:iface.mac in
        ignore
          (Sim.Engine.schedule_after t.engine forward_latency (fun () ->
               transmit t interface
                 (Net.Ethernet.make ~src:iface.mac ~dst:a.sender_mac
                    (Net.Ethernet.Arp reply))))
      | Net.Arp.Request | Net.Arp.Reply -> ())
    | Net.Ethernet.Ipv4 p ->
      let is_local =
        Array.exists (fun i -> Net.Ipv4.equal p.dst i.ip) t.interfaces
      in
      if is_local then local_deliver t p else forward t p

(* Batched data-plane input: transit IPv4 frames take one pass over the
   FIB and a single scheduled transmit event for the whole burst;
   control traffic (ARP, local delivery) is rare and rides the
   single-packet path unchanged. Egress order and timing match what
   per-packet [receive] calls would have produced. *)
let receive_batch t ~interface frames =
  let iface = t.interfaces.(interface) in
  let outs = ref [] in
  Array.iter
    (fun (frame : Net.Ethernet.frame) ->
      let for_me =
        Net.Mac.equal frame.dst iface.mac || Net.Mac.is_broadcast frame.dst
      in
      if for_me then
        match frame.payload with
        | Net.Ethernet.Arp _ -> receive t ~interface frame
        | Net.Ethernet.Ipv4 p ->
          let is_local =
            Array.exists (fun i -> Net.Ipv4.equal p.dst i.ip) t.interfaces
          in
          if is_local then local_deliver t p
          else (
            match route_packet t p with
            | None -> ()
            | Some out -> outs := out :: !outs))
    frames;
  match List.rev !outs with
  | [] -> ()
  | outs ->
    ignore
      (Sim.Engine.schedule_after t.engine forward_latency (fun () ->
           List.iter (fun (i, frame) -> transmit t i frame) outs))

let connect_interface t index link side =
  t.interfaces.(index).tx <- Some (fun frame -> Net.Link.send link side frame);
  Net.Link.attach link side (fun frame -> receive t ~interface:index frame)

let add_bgp_peer t ~name ~channel ~side ?import_local_pref () =
  let peer = Bgp.Speaker.add_peer t.speaker ~name ~channel ~side in
  (match import_local_pref with
  | Some lp -> t.import_local_pref <- (peer.Bgp.Speaker.id, lp) :: t.import_local_pref
  | None -> ());
  peer

let on_peer_failure t f = t.failure_cb <- Some f

let enable_bfd t ~peer ~remote_ip ~interface ?tx_interval () =
  let iface = t.interfaces.(interface) in
  let discriminator = Int32.of_int (Ip_table.length t.bfd_by_remote + 1) in
  let send pkt =
    let payload = Bfd.Packet.encode pkt in
    Arp_cache.resolve t.arp ~interface remote_ip (fun mac ->
        let packet =
          Net.Ipv4_packet.udp ~src:iface.ip ~dst:remote_ip
            ~src_port:(49152 + Int32.to_int discriminator)
            ~dst_port:Bfd.Packet.udp_port payload
        in
        transmit t interface
          (Net.Ethernet.make ~src:iface.mac ~dst:mac (Net.Ethernet.Ipv4 packet)))
  in
  let session =
    Bfd.Session.create t.engine
      ~name:(Fmt.str "%s-bfd-%a" t.name Net.Ipv4.pp remote_ip)
      ~local_discriminator:discriminator ?tx_interval ~send ()
  in
  Ip_table.replace t.bfd_by_remote remote_ip session;
  Bfd.Session.on_state_change session (fun state _diag ->
      match state with
      | Bfd.Packet.Down ->
        (* Only react to a loss after the session had come up; route
           withdrawal goes through the same path as a BGP session
           loss. *)
        if Bfd.Session.packets_received session > 0 then begin
          trace t "%s: BFD down for %s" t.name peer.Bgp.Speaker.peer_name;
          t.fail_peer peer
        end
      | Bfd.Packet.Up | Bfd.Packet.Init | Bfd.Packet.Admin_down -> ());
  Bfd.Session.enable session;
  session

let packets_forwarded t = t.forwarded
let packets_no_route t = t.no_route
let packets_ttl_expired t = t.ttl_expired
