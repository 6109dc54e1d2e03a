module C = Supercharger.Controller

(* --- address and port plan --------------------------------------------- *)

let mac_r1 = Net.Mac.of_string_exn "00:aa:00:00:00:01"
let ip_r1 = Net.Ipv4.of_octets 10 0 0 1
let asn_r1 = Bgp.Asn.of_int 65001

let r1_uplink =
  { Router.Legacy.if_mac = mac_r1; if_ip = ip_r1; if_connected = Net.Prefix.v "10.0.0.0/8" }

let mac_peer i = Net.Mac.of_int64 (Int64.of_int (0xBB_0000_0000 + 2 + i))
let ip_peer i = Net.Ipv4.of_octets 10 0 0 (2 + i)
let asn_peer i = Bgp.Asn.of_int (65002 + i)
let port_peer i = 1 + i
let mac_controller i = Net.Mac.of_int64 (Int64.of_int (0xCC_0000_0000 + 1 + i))
let ip_controller i = Net.Ipv4.of_octets 10 0 0 (100 + i)
let port_controller ~n_peers i = 1 + n_peers + i
let local_pref_of_peer i = 200 - (10 * i)

(* --- the lab ------------------------------------------------------------ *)

type replica = {
  controller : C.t;
  upstream : Bgp.Channel.t array;
  downstream : Bgp.Channel.t;
}

type t = {
  engine : Sim.Engine.t;
  switch : Openflow.Switch.t;
  peers : Router.Peer.t array;
  peer_links : Net.Link.t array;
  r1 : Router.Legacy.t option;
  r1_link : Net.Link.t option;
  replicas : replica array;
  router_rx : Bgp.Message.update Stack.t;
}

(* A device's link to [port], with the plain L2 rule that delivers its
   MAC there. *)
let plug engine switch ~port ~name ~mac connect =
  let link = Net.Link.create engine ~name () in
  connect link Net.Link.A;
  Openflow.Switch.attach_link switch ~port link Net.Link.B;
  Openflow.Flow_table.apply (Openflow.Switch.table switch)
    (Openflow.Flow_table.flow_mod ~priority:10 Openflow.Flow_table.Add
       (Openflow.Ofmatch.dl_dst mac) [Openflow.Action.Output port]);
  link

(* R1's side of a controller session when no real router is attached:
   it answers OPEN and records every UPDATE, so a test can read exactly
   what the controller announced. *)
let record_router ch router_rx =
  Bgp.Channel.attach ch Bgp.Channel.B (function
    | Bgp.Message.Open _ ->
      Bgp.Channel.send ch Bgp.Channel.B
        (Bgp.Message.Open
           { version = 4; asn = asn_r1; hold_time = 90; router_id = ip_r1 });
      Bgp.Channel.send ch Bgp.Channel.B Bgp.Message.Keepalive
    | Bgp.Message.Update u -> Stack.push u router_rx
    | Bgp.Message.Keepalive | Bgp.Message.Notification _ -> ())

let bgp_channel ?(bgp_wire = false) engine name =
  if bgp_wire then Bgp.Channel.create engine ~name ~use_codec:true ~fragment:512 ()
  else Bgp.Channel.create engine ~name ()

let create engine ?flow_mod_latency ?(of_codec = false) ?of_faults ?bgp_wire
    ?(import_local_pref = true) ?bfd_detect_mult ?bfd_tx_interval
    ?(controller : (unit -> C.t) C.tuning -> C.t = fun create -> create ()) ?r1
    ~n_peers ~replicas () =
  if n_peers < 1 then invalid_arg "Lab.create: n_peers";
  if replicas < 0 then invalid_arg "Lab.create: replicas";
  let bgp_channel = bgp_channel ?bgp_wire engine in
  let switch =
    Openflow.Switch.create engine ~name:"e3800" ?flow_mod_latency
      ~n_ports:(1 + n_peers + max 1 replicas)
      ()
  in
  let peers =
    Array.init n_peers (fun i ->
        Router.Peer.create engine
          ~name:("r" ^ string_of_int (2 + i))
          ~asn:(asn_peer i) ~mac:(mac_peer i) ~ip:(ip_peer i) ?bfd_detect_mult
          ?bfd_tx_interval ())
  in
  let r1_link =
    Option.map
      (fun r1 ->
        plug engine switch ~port:0 ~name:"r1-sw" ~mac:mac_r1
          (Router.Legacy.connect_interface r1 0))
      r1
  in
  let peer_links =
    Array.mapi
      (fun i peer ->
        plug engine switch ~port:(port_peer i)
          ~name:(Router.Peer.name peer ^ "-sw")
          ~mac:(mac_peer i) (Router.Peer.connect peer))
      peers
  in
  let router_rx = Stack.create () in
  let replica c_idx =
    (* Names are joined with [^], not Fmt.str: check-chaos builds a lab
       per schedule, and Fmt.str made it 3% slower. *)
    let tag = "c" ^ string_of_int (c_idx + 1) in
    let c =
      controller
        (C.create engine
           ~name:("controller" ^ string_of_int (c_idx + 1))
           ~asn:asn_r1 ~router_id:(ip_controller c_idx))
    in
    C.connect_switch ~use_codec:of_codec ?faults:of_faults c switch;
    let mac = mac_controller c_idx in
    let nic =
      Router.Endhost.create engine ~name:(tag ^ "-nic") ~mac ~ip:(ip_controller c_idx) ()
    in
    ignore
      (plug engine switch
         ~port:(port_controller ~n_peers c_idx)
         ~name:(tag ^ "-sw") ~mac (Router.Endhost.connect nic));
    C.attach_dataplane c nic;
    let upstream =
      Array.mapi
        (fun i peer ->
          let ch = bgp_channel (tag ^ "-" ^ Router.Peer.name peer) in
          (* Speaker peer ids are dense in add order: upstream [i] gets
             id [i], the id the checker's oracle tie-breaks with. *)
          ignore
            (C.add_upstream_peer c ~name:(Router.Peer.name peer) ~ip:(ip_peer i)
               ~mac:(mac_peer i) ~switch_port:(port_peer i) ~channel:ch
               ~side:Bgp.Channel.A
               ?import_local_pref:
                 (if import_local_pref then Some (local_pref_of_peer i) else None)
               ());
          ignore (Router.Peer.add_bgp_peer peer ~name:tag ~channel:ch ~side:Bgp.Channel.B ());
          ch)
        peers
    in
    let downstream = bgp_channel (tag ^ "-r1") in
    ignore (C.add_router c ~name:"r1" ~channel:downstream ~side:Bgp.Channel.A ());
    (match r1 with
    | Some r1 ->
      ignore
        (Router.Legacy.add_bgp_peer r1 ~name:tag ~channel:downstream
           ~side:Bgp.Channel.B ())
    | None -> record_router downstream router_rx);
    { controller = c; upstream; downstream }
  in
  let replicas = Array.init replicas replica in
  { engine; switch; peers; peer_links; r1; r1_link; replicas; router_rx }

let start t =
  Array.iter (fun r -> C.start r.controller) t.replicas;
  Option.iter (fun r1 -> Bgp.Speaker.start (Router.Legacy.speaker r1)) t.r1;
  Array.iter (fun p -> Bgp.Speaker.start (Router.Peer.speaker p)) t.peers
