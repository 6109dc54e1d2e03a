(* dataplane: the forwarding structures the fig5 workloads write, read
   with no control-plane work. Set-up writes the fig5-shaped 500k table
   through Router.Fib (zero latencies) and into a Net.Flat_fib, and
   installs a 24-rule Fib_cache table in a switch. One operation is one
   round of three 128-packet bursts of minimum-size frames: a
   Flat_fib.lookup_batch, a Switch.receive_batch and a
   Legacy.receive_batch, each drained through the engine. *)

let burst = 128
let peer_ip i = Net.Ipv4.of_octets 10 0 0 (2 + i)
let peer_mac i = Net.Mac.of_int64 (Int64.of_int (0xBB02 + i))
let peer_port i = 2 + i
let if_mac = Net.Mac.of_int64 0xAA01L
let src_ip = Net.Ipv4.of_octets 192 168 0 100

(* Output checks, updated by the frame sinks while a burst drains. *)
type sinks = {
  mutable switch_ports : int array;  (* expected egress port per frame *)
  mutable switch_seen : int;
  mutable router_macs : Net.Mac.t array;  (* expected next-hop MAC per frame *)
  mutable router_seen : int;
  mutable wrong : int;
}

type rig = {
  engine : Sim.Engine.t;
  router : Router.Legacy.t;
  switch : Openflow.Switch.t;
  vmac : Net.Mac.t;
  flat : int Net.Flat_fib.t;
  fib_write_s : float;
}

let build ~entries ~rules sinks =
  let engine = Sim.Engine.create () in
  Sim.Trace.set_enabled (Sim.Engine.trace engine) false;
  let router =
    Router.Legacy.create engine ~name:"r1" ~asn:(Bgp.Asn.of_int 65001)
      ~router_id:(Net.Ipv4.of_octets 10 0 0 1)
      ~interfaces:
        [
          {
            Router.Legacy.if_mac;
            if_ip = Net.Ipv4.of_octets 10 0 0 1;
            if_connected = Net.Prefix.v "10.0.0.0/24";
          };
        ]
      ~fib_batch_start_latency:Sim.Time.zero ~fib_per_entry_latency:Sim.Time.zero ()
  in
  let link = Net.Link.create engine ~name:"r1-out" () in
  Router.Legacy.connect_interface router 0 link Net.Link.A;
  Net.Link.attach link Net.Link.B (fun (frame : Net.Ethernet.frame) ->
      let i = sinks.router_seen in
      if i >= Array.length sinks.router_macs || not (Net.Mac.equal frame.dst sinks.router_macs.(i))
      then sinks.wrong <- sinks.wrong + 1;
      sinks.router_seen <- i + 1);
  let (), fib_write_s =
    Harness.time (fun () ->
        Router.Fib.enqueue_batch (Router.Legacy.fib router)
          (Array.to_list
             (Array.mapi
                (fun i (e : Workloads.Rib_gen.entry) ->
                  Router.Fib.Set
                    (e.prefix, Router.Adjacency.make ~interface:0 ~mac:(peer_mac (i mod 2))))
                entries));
        Sim.Engine.run engine)
  in
  let flat = Net.Flat_fib.create () in
  Array.iteri (fun i (e : Workloads.Rib_gen.entry) -> Net.Flat_fib.insert flat e.prefix i) entries;
  let switch = Openflow.Switch.create engine ~n_ports:4 () in
  for port = 0 to 3 do
    Openflow.Switch.set_port_tx switch ~port (fun (frame : Net.Ethernet.frame) ->
        let i = sinks.switch_seen in
        let ok =
          i < Array.length sinks.switch_ports
          && port = sinks.switch_ports.(i)
          && Net.Mac.equal frame.dst (peer_mac (port - 2))
        in
        if not ok then sinks.wrong <- sinks.wrong + 1;
        sinks.switch_seen <- i + 1)
  done;
  let table = Openflow.Switch.table switch in
  let cache =
    Supercharger.Fib_cache.create ~allocator:(Supercharger.Vnh.create ())
      ~send:(function Openflow.Message.Flow_mod fm -> Openflow.Flow_table.apply table fm | _ -> ())
      ()
  in
  for i = 0 to 1 do
    Supercharger.Fib_cache.declare_peer cache
      { Supercharger.Provisioner.pi_ip = peer_ip i; pi_mac = peer_mac i; pi_port = peer_port i }
  done;
  Array.iteri
    (fun i (e : Workloads.Rib_gen.entry) ->
      ignore (Supercharger.Fib_cache.route cache e.prefix (Some (peer_ip (i mod 2)))))
    rules;
  { engine; router; switch; vmac = Supercharger.Fib_cache.vmac cache; flat; fib_write_s }

(* A destination inside a random entry's prefix. *)
let address_in rng (entries : Workloads.Rib_gen.entry array) =
  let e = Sim.Rng.pick rng entries in
  Net.Prefix.nth e.prefix (Sim.Rng.int rng (min (Net.Prefix.size e.prefix) 256))

let frame ~src ~dst_mac ~dst i =
  Net.Ethernet.make ~src ~dst:dst_mac
    (Net.Ethernet.Ipv4
       (Net.Ipv4_packet.udp ~src:src_ip ~dst ~src_port:(1024 + (i land 0xFFF)) ~dst_port:443 "x"))

let index_of oracle addr = Option.map snd (Net.Lpm.lookup oracle addr)

let run (ctx : Harness.ctx) =
  let r = ctx.r and tr = ctx.tr in
  let count = Harness.pick ctx ~full:500_000 ~tiny:5_000 in
  let pool = Harness.pick ctx ~full:256 ~tiny:4 in
  let chunk = Harness.pick ctx ~full:64 ~tiny:8 in
  let seed = Int64.of_int ctx.seed in
  let s_lookup = Trace.site tr "net.flat_fib.lookup_batch"
  and s_switch = Trace.site tr "openflow.switch.receive_batch"
  and s_router = Trace.site tr "router.legacy.receive_batch"
  and s_run = Trace.site tr "sim.engine.run" in
  (* Inputs, and the Net.Lpm reference tables the outputs are checked
     against. *)
  let entries, rules, oracle, rule_oracle =
    Harness.generate ctx (fun () ->
        let entries = Workloads.Rib_gen.generate ~seed ~count in
        let rules = Workloads.Rib_gen.generate_dense ~seed ~count:24 in
        let index table =
          let lpm = Net.Lpm.create () in
          Array.iteri (fun i (e : Workloads.Rib_gen.entry) -> Net.Lpm.insert lpm e.prefix i) table;
          lpm
        in
        (entries, rules, index entries, index rules))
  in
  let sinks =
    { switch_ports = [||]; switch_seen = 0; router_macs = [||]; router_seen = 0; wrong = 0 }
  in
  let rig = Harness.setup ctx (fun () -> build ~entries ~rules sinks) in
  let rng = Sim.Rng.create ~seed in
  let bursts f = Array.init pool (fun b -> Array.init burst (fun i -> f ((b * burst) + i))) in
  let lookups, switch_in, switch_ports, router_in, router_macs =
    Harness.generate ctx (fun () ->
        let lookups =
          bursts (fun i ->
              if i mod 8 = 7 then Net.Ipv4.of_octets 250 (Sim.Rng.int rng 256) (Sim.Rng.int rng 256) 1
              else address_in rng entries)
        in
        let switch_dst = bursts (fun _ -> address_in rng rules) in
        let router_dst = bursts (fun _ -> address_in rng entries) in
        let expected oracle f = Array.map (Array.map (fun a -> f (Option.get (index_of oracle a)))) in
        ( lookups,
          Array.map (Array.mapi (fun i dst -> frame ~src:(Net.Mac.of_int64 0xAA02L) ~dst_mac:rig.vmac ~dst i)) switch_dst,
          expected rule_oracle (fun i -> peer_port (i mod 2)) switch_dst,
          Array.map (Array.mapi (fun i dst -> frame ~src:(peer_mac 0) ~dst_mac:if_mac ~dst i)) router_dst,
          expected oracle (fun i -> peer_mac (i mod 2)) router_dst ))
  in
  let out = Array.make burst None in
  let drain () =
    let e0 = Sim.Engine.events_processed rig.engine in
    Trace.enter tr s_run;
    Sim.Engine.run rig.engine;
    Trace.leave_items tr 0;
    Trace.add_items tr s_run (Sim.Engine.events_processed rig.engine - e0)
  in
  let block_ns = Array.make 3 0 in
  let timed_block i f =
    let t0 = Trace.now_ns () in
    f ();
    block_ns.(i) <- block_ns.(i) + (Trace.now_ns () - t0)
  in
  let round b =
    timed_block 0 (fun () ->
        Trace.enter tr s_lookup;
        Net.Flat_fib.lookup_batch rig.flat lookups.(b) out;
        Trace.leave_items tr burst);
    sinks.switch_ports <- switch_ports.(b);
    sinks.switch_seen <- 0;
    timed_block 1 (fun () ->
        Trace.enter tr s_switch;
        Openflow.Switch.receive_batch rig.switch ~port:0 switch_in.(b);
        Trace.leave_items tr burst;
        drain ());
    sinks.router_macs <- router_macs.(b);
    sinks.router_seen <- 0;
    timed_block 2 (fun () ->
        Trace.enter tr s_router;
        Router.Legacy.receive_batch rig.router ~interface:0 router_in.(b);
        Trace.leave_items tr burst;
        drain ())
  in
  (* Every 64th lookup against the reference trie, and every frame out
     where its rule says. *)
  let round_ok b =
    let ok = ref (sinks.switch_seen = burst && sinks.router_seen = burst && sinks.wrong = 0) in
    let i = ref 0 in
    while !i < burst do
      if not (Option.equal Int.equal out.(!i) (index_of oracle lookups.(b).(!i))) then ok := false;
      i := !i + 64
    done;
    sinks.wrong <- 0;
    !ok
  in
  let lp = Harness.loop ~n_ops:(Harness.op_count ctx ~nominal_per_s:6_000.0) () in
  let events0 = Sim.Engine.events_processed rig.engine in
  let k = ref 0 and failed = ref 0 in
  while Harness.more lp do
    if !k mod chunk = 0 then Harness.chunk ctx (!k / chunk);
    let b = !k mod pool in
    Trace.op tr !k;
    Harness.timed_op lp tr (fun () -> round b);
    if not (round_ok b) then incr failed;
    incr k
  done;
  let rounds = Harness.ops_done lp in
  let busy_s = float_of_int lp.busy_ns /. 1e9 in
  Harness.finish ctx lp;
  Report.ops r ~attempted:rounds ~failed:!failed;
  Report.check r "dataplane.outputs_match_rules" (!failed = 0);
  let events = Sim.Engine.events_processed rig.engine - events0 in
  Report.layer r ~exact:true "sim.events_per_op" (float_of_int events /. float_of_int rounds);
  Report.layer r "sim.events_per_s" (float_of_int events /. busy_s);
  Report.layer r ~exact:true "router.fib.writes"
    (float_of_int (Router.Fib.applied_count (Router.Legacy.fib rig.router)));
  Report.layer r ~exact:true "net.flat_fib.nodes" (float_of_int (Net.Flat_fib.nodes rig.flat));
  let pps i = float_of_int (rounds * burst) /. (float_of_int block_ns.(i) /. 1e9) in
  Report.extra r "lookups_per_s" ~unit_:"1/s" (pps 0);
  Report.extra r "switch_pps" ~unit_:"1/s" (pps 1);
  Report.extra r "router_pps" ~unit_:"1/s" (pps 2);
  Report.extra r "router.fib.write_ns" ~unit_:"ns" (rig.fib_write_s *. 1e9 /. float_of_int count);
  if Harness.traced ctx then Harness.attribute ctx ~wall_s:(float_of_int lp.traced_ns /. 1e9)
