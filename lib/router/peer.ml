module Ip_table = Hashtbl.Make (struct
  type t = Net.Ipv4.t

  let equal = Net.Ipv4.equal
  let hash = Net.Ipv4.hash
end)

type t = {
  engine : Sim.Engine.t;
  name : string;
  asn : Bgp.Asn.t;
  mac : Net.Mac.t;
  ip : Net.Ipv4.t;
  bfd_tx_interval : Sim.Time.t option;
  speaker : Bgp.Speaker.t;
  bfd_responders : Bfd.Session.t Ip_table.t;
  mutable remote_macs : Net.Mac.t Ip_table.t;
  mutable tx : (Net.Ethernet.frame -> unit) option;
  mutable delivery_cb : (Net.Ipv4_packet.t -> unit) option;
  mutable delivered : int;
  mutable next_discriminator : int32;
}

let create engine ~name ~asn ~mac ~ip ?bfd_tx_interval () =
  {
    engine;
    name;
    asn;
    mac;
    ip;
    bfd_tx_interval;
    speaker = Bgp.Speaker.create engine ~name ~asn ~router_id:ip ();
    bfd_responders = Ip_table.create 4;
    remote_macs = Ip_table.create 8;
    tx = None;
    delivery_cb = None;
    delivered = 0;
    next_discriminator = 1l;
  }

let name t = t.name
let mac t = t.mac
let ip t = t.ip
let asn t = t.asn
let speaker t = t.speaker

let add_bgp_peer t ~name ~channel ~side =
  Bgp.Speaker.add_peer t.speaker ~name ~channel ~side

let announce_to_all t update =
  List.iter
    (fun (p : Bgp.Speaker.peer) ->
      if Bgp.Session.state p.session = Bgp.Session.Established then
        Bgp.Session.send_update p.session update)
    (Bgp.Speaker.peers t.speaker)

let transmit t frame = match t.tx with Some f -> f frame | None -> ()

(* BFD responder sessions spring into existence on the first control
   packet from a remote, mirroring a daemon configured in listen mode. *)
let bfd_responder t remote_ip =
  match Ip_table.find_opt t.bfd_responders remote_ip with
  | Some session -> session
  | None ->
    let discriminator = t.next_discriminator in
    t.next_discriminator <- Int32.succ t.next_discriminator;
    let send pkt =
      match Ip_table.find_opt t.remote_macs remote_ip with
      | Some dst_mac ->
        let packet =
          Net.Ipv4_packet.udp ~src:t.ip ~dst:remote_ip
            ~src_port:(49152 + Int32.to_int discriminator)
            ~dst_port:Bfd.Packet.udp_port (Bfd.Packet.encode pkt)
        in
        transmit t (Net.Ethernet.make ~src:t.mac ~dst:dst_mac (Net.Ethernet.Ipv4 packet))
      | None -> ()
    in
    let session =
      Bfd.Session.create t.engine
        ~name:(Fmt.str "%s-bfd-%a" t.name Net.Ipv4.pp remote_ip)
        ~local_discriminator:discriminator ?tx_interval:t.bfd_tx_interval ~send ()
    in
    Bfd.Session.enable session;
    Ip_table.replace t.bfd_responders remote_ip session;
    session

let receive t (frame : Net.Ethernet.frame) =
  let for_me = Net.Mac.equal frame.dst t.mac || Net.Mac.is_broadcast frame.dst in
  if for_me then
    match frame.payload with
    | Net.Ethernet.Arp a -> (
      Ip_table.replace t.remote_macs a.sender_ip a.sender_mac;
      match a.op with
      | Net.Arp.Request when Net.Ipv4.equal a.target_ip t.ip ->
        let reply = Net.Arp.reply a ~sender_mac:t.mac in
        transmit t
          (Net.Ethernet.make ~src:t.mac ~dst:a.sender_mac (Net.Ethernet.Arp reply))
      | Net.Arp.Request | Net.Arp.Reply -> ())
    | Net.Ethernet.Ipv4 p when Net.Ipv4.equal p.dst t.ip -> (
      match p.payload with
      | Net.Ipv4_packet.Udp u when u.Net.Udp.dst_port = Bfd.Packet.udp_port -> (
        Ip_table.replace t.remote_macs p.src frame.src;
        match Bfd.Packet.decode u.Net.Udp.payload with
        | Ok pkt -> Bfd.Session.receive (bfd_responder t p.src) pkt
        | Error _ -> ())
      | Net.Ipv4_packet.Udp _ | Net.Ipv4_packet.Raw _ -> ())
    | Net.Ethernet.Ipv4 p ->
      (* Transit traffic: the provider "carries it to the Internet"; in
         the lab it is wired straight to the sink. *)
      t.delivered <- t.delivered + 1;
      (match t.delivery_cb with Some f -> f p | None -> ())

let connect t link side =
  t.tx <- Some (fun frame -> Net.Link.send link side frame);
  Net.Link.attach link side (receive t)

let on_delivery t f = t.delivery_cb <- Some f

let packets_delivered t = t.delivered
