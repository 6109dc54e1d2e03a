type t = {
  engine : Sim.Engine.t;
  name : string;
  mac : Net.Mac.t;
  ip : Net.Ipv4.t;
  arp : Arp_cache.t;
  tx : (Net.Ethernet.frame -> unit) option ref;
  mutable udp_cb : (src:Net.Ipv4.t -> Net.Udp.t -> unit) option;
}

let create engine ~name ~mac ~ip () =
  let tx = ref None in
  let transmit frame = match !tx with Some f -> f frame | None -> () in
  let send_request ~interface:_ ~target =
    transmit
      (Net.Ethernet.make ~src:mac ~dst:Net.Mac.broadcast
         (Net.Ethernet.Arp (Net.Arp.request ~sender_mac:mac ~sender_ip:ip ~target_ip:target)))
  in
  let arp = Arp_cache.create engine ~name:(name ^ ".arp") ~send_request () in
  { engine; name; mac; ip; arp; tx; udp_cb = None }

let transmit t frame = match !(t.tx) with Some f -> f frame | None -> ()

let name t = t.name
let mac t = t.mac
let ip t = t.ip

let receive t (frame : Net.Ethernet.frame) =
  let for_me = Net.Mac.equal frame.dst t.mac || Net.Mac.is_broadcast frame.dst in
  if for_me then
    match frame.payload with
    | Net.Ethernet.Arp a -> (
      Arp_cache.learn t.arp a.sender_ip a.sender_mac;
      match a.op with
      | Net.Arp.Request when Net.Ipv4.equal a.target_ip t.ip ->
        let reply = Net.Arp.reply a ~sender_mac:t.mac in
        transmit t
          (Net.Ethernet.make ~src:t.mac ~dst:a.sender_mac (Net.Ethernet.Arp reply))
      | Net.Arp.Request | Net.Arp.Reply -> ())
    | Net.Ethernet.Ipv4 p when Net.Ipv4.equal p.dst t.ip -> (
      match p.payload with
      | Net.Ipv4_packet.Udp u ->
        (match t.udp_cb with Some f -> f ~src:p.src u | None -> ())
      | Net.Ipv4_packet.Raw _ -> ())
    | Net.Ethernet.Ipv4 _ -> ()

let connect t link side =
  t.tx := Some (fun frame -> Net.Link.send link side frame);
  Net.Link.attach link side (receive t)

let resolve t dst k = Arp_cache.resolve t.arp ~interface:0 dst k

let send_udp t ~dst ~src_port ~dst_port payload =
  resolve t dst (fun dst_mac ->
      let packet = Net.Ipv4_packet.udp ~src:t.ip ~dst ~src_port ~dst_port payload in
      transmit t
        (Net.Ethernet.make ~src:t.mac ~dst:dst_mac (Net.Ethernet.Ipv4 packet)))

let on_udp t f = t.udp_cb <- Some f
