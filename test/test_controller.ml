(* Focused controller tests: the ARP punt/reply path through a real
   switch, the reactive VMAC fallback, and the §2 bound that a failover
   rewrites at most #peers rules. *)

let ip = Net.Ipv4.of_string_exn
let mac = Net.Mac.of_string_exn

(* The Fig. 4 lab with one controller replica and [n] providers; R1 is
   the lab's recording stub, so tests can inspect exactly what the
   controller announces. *)
type rig = {
  engine : Sim.Engine.t;
  switch : Openflow.Switch.t;
  controller : Supercharger.Controller.t;
  peers : Router.Peer.t array;
  peer_links : Net.Link.t array;
  router_rx : Bgp.Message.update Stack.t;  (** newest on top *)
}

let run_for rig s =
  Sim.Engine.run
    ~until:(Sim.Time.add (Sim.Engine.now rig.engine) (Sim.Time.of_sec s))
    rig.engine

(* Quiescence-driven settling, replacing the old fixed sleeps: advance
   in 50 ms slices until the public predicate (controller quiescent +
   switch table-update engine idle) holds and the activity snapshot has
   been still for six consecutive slices. The 300 ms of enforced
   stillness covers the windows the predicate alone cannot see — BFD
   detection (3 x 40 ms) after a link cut, during which the controller
   has no work in flight yet. Time-based waits remain only where a
   timer must actually expire (the 5 s group linger). *)
let settle ?(timeout = 30.0) rig =
  let snapshot () =
    ( Supercharger.Provisioner.flow_mods_sent
        (Supercharger.Controller.provisioner rig.controller),
      Openflow.Switch.flow_mods_applied rig.switch,
      Supercharger.Algorithm.announced_count
        (Supercharger.Controller.algorithm rig.controller),
      Supercharger.Controller.failovers_handled rig.controller,
      Stack.length rig.router_rx,
      Array.to_list
        (Array.map
           (fun p ->
             match
               Supercharger.Controller.bfd_session rig.controller
                 (Router.Peer.ip p)
             with
             | Some s -> Bfd.Session.state s = Bfd.Packet.Up
             | None -> true)
           rig.peers) )
  in
  let deadline =
    Sim.Time.add (Sim.Engine.now rig.engine) (Sim.Time.of_sec timeout)
  in
  let rec loop stable last =
    if Sim.Time.( >= ) (Sim.Engine.now rig.engine) deadline then
      Alcotest.fail "no quiescence before the settle deadline"
    else begin
      run_for rig 0.05;
      let snap = snapshot () in
      if
        Supercharger.Controller.quiescent rig.controller
        && Openflow.Switch.idle rig.switch
        && last = Some snap
      then (if stable + 1 < 6 then loop (stable + 1) last)
      else loop 0 (Some snap)
    end
  in
  loop 0 None

let make_rig ?(n_peers = 2) () =
  (* The whole control channel runs through the OF 1.0 binary codec. *)
  let lab =
    Experiments.Lab.create (Sim.Engine.create ~seed:9L ()) ~of_codec:true ~n_peers
      ~replicas:1 ()
  in
  Experiments.Lab.start lab;
  let rig =
    { engine = lab.engine; switch = lab.switch;
      controller = lab.replicas.(0).controller; peers = lab.peers;
      peer_links = lab.peer_links; router_rx = lab.router_rx }
  in
  settle rig;
  rig

let announce rig peer_idx prefixes =
  let peer = rig.peers.(peer_idx) in
  let attrs =
    Bgp.Attributes.make
      ~as_path:[Bgp.Attributes.Seq [Router.Peer.asn peer]]
      ~next_hop:(Router.Peer.ip peer) ()
  in
  Router.Peer.announce_to_all peer
    { Bgp.Message.withdrawn = []; attrs = Some attrs;
      nlri = List.map Net.Prefix.v prefixes };
  settle rig

let vnh_of_last_announce rig =
  match Stack.top_opt rig.router_rx with
  | Some { Bgp.Message.attrs = Some attrs; _ } -> attrs.Bgp.Attributes.next_hop
  | _ -> Alcotest.fail "no announcement reached the router"

let controller_tests =
  [
    Alcotest.test_case "ARP for a VNH is answered with the VMAC" `Quick (fun () ->
        let rig = make_rig () in
        announce rig 0 ["1.0.0.0/24"];
        announce rig 1 ["1.0.0.0/24"];
        let vnh = vnh_of_last_announce rig in
        (* Inject the router's ARP request at the switch as port 0 would. *)
        let learned = ref None in
        let rx_link = Net.Link.create rig.engine () in
        Net.Link.attach rx_link Net.Link.A (fun frame ->
            match frame.Net.Ethernet.payload with
            | Net.Ethernet.Arp { op = Net.Arp.Reply; sender_ip; sender_mac; _ } ->
              learned := Some (sender_ip, sender_mac)
            | _ -> ());
        Openflow.Switch.attach_link rig.switch ~port:0 rx_link Net.Link.B;
        Net.Link.send rx_link Net.Link.A
          (Net.Ethernet.make ~src:(mac "00:aa:00:00:00:01") ~dst:Net.Mac.broadcast
             (Net.Ethernet.Arp
                (Net.Arp.request ~sender_mac:(mac "00:aa:00:00:00:01")
                   ~sender_ip:(ip "10.0.0.1") ~target_ip:vnh)));
        settle rig;
        match !learned with
        | Some (sender_ip, sender_mac) ->
          Alcotest.(check bool) "vnh claimed" true (Net.Ipv4.equal sender_ip vnh);
          let groups = Supercharger.Controller.groups rig.controller in
          (match Supercharger.Backup_group.find_by_vnh groups vnh with
          | Some binding ->
            Alcotest.(check string) "vmac" (Net.Mac.to_string binding.vmac)
              (Net.Mac.to_string sender_mac)
          | None -> Alcotest.fail "vnh unknown to the registry")
        | None -> Alcotest.fail "no ARP reply received");
    Alcotest.test_case "ARP for a real host is re-flooded, owner answers" `Quick
      (fun () ->
        let rig = make_rig () in
        let got_reply = ref false in
        let rx_link = Net.Link.create rig.engine () in
        Net.Link.attach rx_link Net.Link.A (fun frame ->
            match frame.Net.Ethernet.payload with
            | Net.Ethernet.Arp { op = Net.Arp.Reply; sender_ip; _ }
              when Net.Ipv4.equal sender_ip (ip "10.0.0.2") ->
              got_reply := true
            | _ -> ());
        Openflow.Switch.attach_link rig.switch ~port:0 rx_link Net.Link.B;
        Openflow.Flow_table.apply (Openflow.Switch.table rig.switch)
          (Openflow.Flow_table.flow_mod ~priority:10 Openflow.Flow_table.Add
             (Openflow.Ofmatch.dl_dst (mac "00:aa:00:00:00:01"))
             [Openflow.Action.Output 0]);
        Net.Link.send rx_link Net.Link.A
          (Net.Ethernet.make ~src:(mac "00:aa:00:00:00:01") ~dst:Net.Mac.broadcast
             (Net.Ethernet.Arp
                (Net.Arp.request ~sender_mac:(mac "00:aa:00:00:00:01")
                   ~sender_ip:(ip "10.0.0.1") ~target_ip:(ip "10.0.0.2"))));
        settle rig;
        Alcotest.(check bool) "peer replied" true !got_reply);
    Alcotest.test_case "reactive fallback forwards a racing VMAC packet" `Quick
      (fun () ->
        (* A tagged packet arriving before its rule is installed must be
           punted and forwarded by the controller itself. *)
        let rig = make_rig () in
        announce rig 0 ["1.0.0.0/24"];
        announce rig 1 ["1.0.0.0/24"];
        let groups = Supercharger.Controller.groups rig.controller in
        let binding =
          match Supercharger.Backup_group.all groups with
          | [b] -> b
          | _ -> Alcotest.fail "expected one group"
        in
        (* Remove the installed rule to simulate the race. *)
        Openflow.Flow_table.apply (Openflow.Switch.table rig.switch)
          (Openflow.Flow_table.flow_mod ~priority:100 Openflow.Flow_table.Delete_strict
             (Openflow.Ofmatch.dl_dst binding.vmac)
             []);
        let delivered = ref 0 in
        Router.Peer.on_delivery rig.peers.(0) (fun _ -> incr delivered);
        Openflow.Switch.receive rig.switch ~port:0
          (Net.Ethernet.make ~src:(mac "00:aa:00:00:00:01") ~dst:binding.vmac
             (Net.Ethernet.Ipv4
                (Net.Ipv4_packet.udp ~src:(ip "192.168.0.100") ~dst:(ip "1.0.0.1")
                   ~src_port:1 ~dst_port:2 "x")));
        settle rig;
        Alcotest.(check int) "delivered via packet-out" 1 !delivered);
    Alcotest.test_case "failover rewrites at most #peers rules (S2 bound)" `Quick
      (fun () ->
        let rig = make_rig ~n_peers:4 () in
        (* Four peers, staggered preference; every prefix shares the
           (p0, p1) group, but build some extra groups by withdrawing
           from subsets. *)
        announce rig 0 ["1.0.0.0/24"; "2.0.0.0/24"; "3.0.0.0/24"];
        announce rig 1 ["1.0.0.0/24"; "2.0.0.0/24"];
        announce rig 2 ["2.0.0.0/24"; "3.0.0.0/24"];
        announce rig 3 ["3.0.0.0/24"];
        let rewrites = ref None in
        Supercharger.Controller.on_failover rig.controller (fun ~failed:_ ~flow_mods ->
            rewrites := Some flow_mods);
        Net.Link.set_up rig.peer_links.(0) false;
        settle rig;
        match !rewrites with
        | Some n ->
          Alcotest.(check bool) (Fmt.str "%d <= 4 peers" n) true (n <= 4);
          Alcotest.(check bool) "rewrote something" true (n >= 1)
        | None -> Alcotest.fail "failover did not run");
    Alcotest.test_case "peer recovery re-points the groups back" `Quick (fun () ->
        let rig = make_rig () in
        announce rig 0 ["1.0.0.0/24"];
        announce rig 1 ["1.0.0.0/24"];
        let groups = Supercharger.Controller.groups rig.controller in
        let prov = Supercharger.Controller.provisioner rig.controller in
        let binding =
          match Supercharger.Backup_group.all groups with
          | [b] -> b
          | _ -> Alcotest.fail "expected one group"
        in
        (* Fail the primary; the group must point at the backup. *)
        Net.Link.set_up rig.peer_links.(0) false;
        settle rig;
        Alcotest.(check (option string)) "on backup" (Some "10.0.0.3")
          (Option.map Net.Ipv4.to_string (Supercharger.Provisioner.selected prov binding));
        (* Plug the cable back: BFD comes up, the group returns to the
           primary, and the controller restores the peer's routes from
           its Adj-RIB-In — the session never reset, so the peer itself
           stays silent (soft reconfiguration inbound). *)
        Net.Link.set_up rig.peer_links.(0) true;
        settle rig;
        Alcotest.(check (option string)) "back on primary" (Some "10.0.0.2")
          (Option.map Net.Ipv4.to_string (Supercharger.Provisioner.selected prov binding));
        let algo = Supercharger.Controller.algorithm rig.controller in
        (match Supercharger.Algorithm.last_announced algo (Net.Prefix.v "1.0.0.0/24") with
        | Some attrs ->
          Alcotest.(check bool) "restored announcement carries the VNH" true
            (Supercharger.Backup_group.find_by_vnh groups attrs.Bgp.Attributes.next_hop
            <> None)
        | None -> Alcotest.fail "route not restored from the Adj-RIB-In");
        (* A peer re-sending the identical route after recovery must not
           cause churn towards the router. *)
        let before = Stack.length rig.router_rx in
        announce rig 0 ["1.0.0.0/24"];
        settle rig;
        Alcotest.(check int) "identical re-announcement is phantom churn" before
          (Stack.length rig.router_rx));
    Alcotest.test_case "withdraw storm converges to consistent state" `Quick
      (fun () ->
        let rig = make_rig () in
        let prefixes = List.init 30 (fun i -> Fmt.str "1.0.%d.0/24" i) in
        announce rig 0 prefixes;
        announce rig 1 prefixes;
        (* Backup withdraws everything: the controller must re-announce
           every prefix with the primary's real next hop. *)
        Router.Peer.announce_to_all rig.peers.(1)
          { Bgp.Message.withdrawn = List.map Net.Prefix.v prefixes;
            attrs = None; nlri = [] };
        settle rig;
        let algo = Supercharger.Controller.algorithm rig.controller in
        List.iter
          (fun p ->
            match Supercharger.Algorithm.last_announced algo (Net.Prefix.v p) with
            | Some attrs ->
              Alcotest.(check string) "real primary NH" "10.0.0.2"
                (Net.Ipv4.to_string attrs.Bgp.Attributes.next_hop)
            | None -> Alcotest.failf "%s lost" p)
          prefixes;
        (* Primary withdraws too: everything must be withdrawn. *)
        Router.Peer.announce_to_all rig.peers.(0)
          { Bgp.Message.withdrawn = List.map Net.Prefix.v prefixes;
            attrs = None; nlri = [] };
        settle rig;
        Alcotest.(check int) "nothing announced" 0
          (Supercharger.Algorithm.announced_count algo));
    Alcotest.test_case "flap churn keeps online state = offline recomputation" `Quick
      (fun () ->
        let rig = make_rig () in
        let entries = Workloads.Rib_gen.generate ~seed:21L ~count:40 in
        Array.iter
          (fun (e : Workloads.Rib_gen.entry) ->
            announce rig 0 [Net.Prefix.to_string e.prefix];
            announce rig 1 [Net.Prefix.to_string e.prefix])
          entries;
        (* Random withdraw/re-announce churn from the backup peer. *)
        let events =
          Workloads.Churn.flap ~seed:22L ~entries ~rounds:60
            ~next_hop:(Router.Peer.ip rig.peers.(1))
            ~asn:(Router.Peer.asn rig.peers.(1))
            ~peer:1
        in
        List.iter
          (fun (ev : Workloads.Churn.event) ->
            Router.Peer.announce_to_all rig.peers.(1) ev.update)
          events;
        settle rig;
        let rib = Supercharger.Controller.rib rig.controller in
        let algo = Supercharger.Controller.algorithm rig.controller in
        let groups = Supercharger.Controller.groups rig.controller in
        Array.iter
          (fun (e : Workloads.Rib_gen.entry) ->
            let ranked = Bgp.Rib.ordered rib e.prefix in
            let expected_nh =
              match ranked with
              | [] -> None
              | [only] -> Some (Bgp.Route.next_hop only)
              | routes -> (
                match
                  Supercharger.Backup_group.find groups
                    (List.map Bgp.Route.next_hop routes)
                with
                | Some b -> Some b.vnh
                | None -> None)
            in
            let got =
              Option.map
                (fun (a : Bgp.Attributes.t) -> a.Bgp.Attributes.next_hop)
                (Supercharger.Algorithm.last_announced algo e.prefix)
            in
            Alcotest.(check bool)
              (Fmt.str "%a consistent" Net.Prefix.pp e.prefix)
              true
              (Option.equal Net.Ipv4.equal expected_nh got))
          entries);
    Alcotest.test_case "an IGP cost oracle reorders the backup group" `Quick
      (fun () ->
        (* Make the lower-LOCAL-PREF... rather, equalise preferences and
           let the IGP decide: with peer 1 closer than peer 0, the group
           must be (peer1, peer0). *)
        let rig = make_rig () in
        Supercharger.Controller.set_igp_cost_fn rig.controller (fun nh ->
            if Net.Ipv4.equal nh (ip "10.0.0.2") then 10 else 1);
        (* Same LOCAL_PREF for both: announce with explicit equal pref
           through the import policy by using identical updates. The rig
           sets import_local_pref 200/190, so override by announcing from
           both and checking that IGP only breaks remaining ties. *)
        let attrs peer =
          Bgp.Attributes.make
            ~as_path:[Bgp.Attributes.Seq [Router.Peer.asn rig.peers.(peer)]]
            ~next_hop:(Router.Peer.ip rig.peers.(peer)) ()
        in
        ignore attrs;
        (* Directly exercise the RIB ordering the controller built. *)
        announce rig 0 ["5.0.0.0/24"];
        announce rig 1 ["5.0.0.0/24"];
        let rib = Supercharger.Controller.rib rig.controller in
        (match Bgp.Rib.ordered rib (Net.Prefix.v "5.0.0.0/24") with
        | [first; second] ->
          (* LOCAL_PREF (200 vs 190) still dominates, but the stored
             routes must carry the oracle's costs. *)
          Alcotest.(check int) "first cost" 10 first.Bgp.Route.igp_cost;
          Alcotest.(check int) "second cost" 1 second.Bgp.Route.igp_cost
        | _ -> Alcotest.fail "expected two candidates");
        (* Now remove the preference difference: a fresh rig with equal
           import policies shows the IGP deciding the order. *)
        let engine = Sim.Engine.create () in
        let rib = Bgp.Rib.create () in
        let groups =
          Supercharger.Backup_group.create (Supercharger.Vnh.create ())
        in
        let algo = Supercharger.Algorithm.create groups in
        ignore engine;
        let route peer_id nh cost =
          Bgp.Route.make ~peer_id ~peer_router_id:(ip nh) ~igp_cost:cost
            (Bgp.Attributes.make
               ~as_path:[Bgp.Attributes.Seq [Bgp.Asn.of_int 65002]]
               ~next_hop:(ip nh) ())
        in
        let feed change =
          Option.iter
            (fun c -> ignore (Supercharger.Algorithm.process_change algo c))
            change
        in
        feed (Bgp.Rib.announce rib (Net.Prefix.v "6.0.0.0/24") (route 0 "10.0.0.2" 10));
        feed (Bgp.Rib.announce rib (Net.Prefix.v "6.0.0.0/24") (route 1 "10.0.0.3" 1));
        match Supercharger.Backup_group.all groups with
        | [b] ->
          Alcotest.(check (list string)) "igp-near peer is primary"
            ["10.0.0.3"; "10.0.0.2"]
            (List.map Net.Ipv4.to_string b.next_hops)
        | _ -> Alcotest.fail "expected one group");
    Alcotest.test_case "repeated identical announce drives no phantom churn" `Quick
      (fun () ->
        (* The no-op suppression in Bgp.Rib.announce: a peer re-sending
           the exact same route must not produce change records, so
           neither Listing 1 nor the metrics layer sees any churn. *)
        let rig = make_rig () in
        let emissions () =
          Option.value ~default:0
            (Obs.Metrics.find_counter
               (Sim.Engine.metrics rig.engine) "controller.emissions")
        in
        announce rig 0 ["7.7.0.0/24"];
        let after_first = emissions () in
        Alcotest.(check bool) "first announce emitted" true (after_first >= 1);
        let updates_before =
          Supercharger.Controller.updates_processed rig.controller
        in
        announce rig 0 ["7.7.0.0/24"];
        Alcotest.(check bool) "update was processed" true
          (Supercharger.Controller.updates_processed rig.controller > updates_before);
        Alcotest.(check int) "emissions unchanged" after_first (emissions ());
        Alcotest.(check int) "algorithm saw no churn" after_first
          (Supercharger.Algorithm.emissions_total
             (Supercharger.Controller.algorithm rig.controller)));
    Alcotest.test_case "updates processed counter advances" `Quick (fun () ->
        let rig = make_rig () in
        announce rig 0 ["1.0.0.0/24"; "2.0.0.0/24"];
        Alcotest.(check bool) "counted" true
          (Supercharger.Controller.updates_processed rig.controller >= 1));
    Alcotest.test_case "consecutive withdrawals pack into one UPDATE" `Quick
      (fun () ->
        let p s = Net.Prefix.v s in
        let attrs nh =
          Bgp.Attributes.make
            ~as_path:[Bgp.Attributes.Seq [Bgp.Asn.of_int 65002]]
            ~next_hop:(ip nh) ()
        in
        let a = attrs "10.0.0.2" in
        let emissions =
          [
            Supercharger.Algorithm.Announce (p "1.0.0.0/24", a);
            Supercharger.Algorithm.Announce (p "2.0.0.0/24", a);
            Supercharger.Algorithm.Withdraw (p "3.0.0.0/24");
            Supercharger.Algorithm.Withdraw (p "4.0.0.0/24");
            Supercharger.Algorithm.Withdraw (p "5.0.0.0/24");
            Supercharger.Algorithm.Announce (p "6.0.0.0/24", attrs "10.0.0.3");
          ]
        in
        match Supercharger.Controller.updates_of_emissions emissions with
        | [u1; u2; u3] ->
          Alcotest.(check (list string)) "shared-attrs announcements packed"
            ["1.0.0.0/24"; "2.0.0.0/24"]
            (List.map Net.Prefix.to_string u1.Bgp.Message.nlri);
          Alcotest.(check (list string)) "withdrawal run packed"
            ["3.0.0.0/24"; "4.0.0.0/24"; "5.0.0.0/24"]
            (List.map Net.Prefix.to_string u2.Bgp.Message.withdrawn);
          Alcotest.(check bool) "withdrawal update has no attrs" true
            (u2.Bgp.Message.attrs = None && u2.Bgp.Message.nlri = []);
          Alcotest.(check (list string)) "different attrs break the run"
            ["6.0.0.0/24"]
            (List.map Net.Prefix.to_string u3.Bgp.Message.nlri)
        | us -> Alcotest.failf "expected 3 updates, got %d" (List.length us));
    Alcotest.test_case "a withdrawal storm reaches the router as one UPDATE" `Quick
      (fun () ->
        let rig = make_rig () in
        let prefixes = List.init 10 (fun i -> Fmt.str "7.0.%d.0/24" i) in
        announce rig 0 prefixes;
        announce rig 1 prefixes;
        (* Backup withdrawing first leaves each prefix single-homed; the
           primary's withdrawal then emits ten withdrawals in one batch,
           which must ride in a single UPDATE's withdrawn list. *)
        Router.Peer.announce_to_all rig.peers.(1)
          { Bgp.Message.withdrawn = List.map Net.Prefix.v prefixes;
            attrs = None; nlri = [] };
        settle rig;
        Router.Peer.announce_to_all rig.peers.(0)
          { Bgp.Message.withdrawn = List.map Net.Prefix.v prefixes;
            attrs = None; nlri = [] };
        settle rig;
        match Stack.top_opt rig.router_rx with
        | Some { Bgp.Message.withdrawn; attrs = None; nlri = [] } ->
          Alcotest.(check int) "all ten in one message" 10 (List.length withdrawn)
        | _ -> Alcotest.fail "head of router_rx is not a pure withdrawal");
    Alcotest.test_case "group churn returns groups, rules and VNHs to baseline"
      `Quick (fun () ->
        let rig = make_rig ~n_peers:3 () in
        let groups = Supercharger.Controller.groups rig.controller in
        announce rig 0 ["1.0.0.0/24"];
        announce rig 1 ["1.0.0.0/24"];
        let baseline_groups = Supercharger.Backup_group.count groups in
        let baseline_rules =
          Openflow.Flow_table.size (Openflow.Switch.table rig.switch)
        in
        (* A prefix served by peers 0 and 2 creates a second group and
           installs its rule. *)
        announce rig 0 ["2.0.0.0/24"];
        announce rig 2 ["2.0.0.0/24"];
        Alcotest.(check int) "one more group"
          (baseline_groups + 1)
          (Supercharger.Backup_group.count groups);
        Alcotest.(check int) "one more rule" (baseline_rules + 1)
          (Openflow.Flow_table.size (Openflow.Switch.table rig.switch));
        let churn_vnh =
          match
            List.filter
              (fun (b : Supercharger.Backup_group.binding) ->
                Supercharger.Backup_group.refs b = 0
                || List.exists (Net.Ipv4.equal (ip "10.0.0.4")) b.next_hops)
              (Supercharger.Backup_group.all groups)
          with
          | [b] -> b.vnh
          | _ -> Alcotest.fail "expected exactly one (p0, p2) group"
        in
        (* Withdrawing peer 2's route leaves the prefix single-homed: the
           group goes idle and, after the linger, is destroyed, its rule
           uninstalled and its VNH/VMAC recycled. *)
        Router.Peer.announce_to_all rig.peers.(2)
          { Bgp.Message.withdrawn = [Net.Prefix.v "2.0.0.0/24"];
            attrs = None; nlri = [] };
        settle rig;
        Alcotest.(check int) "idle group still registered"
          (baseline_groups + 1)
          (Supercharger.Backup_group.count groups);
        run_for rig 6.0 (* > the 5s group_linger *);
        Alcotest.(check int) "group count back to baseline" baseline_groups
          (Supercharger.Backup_group.count groups);
        Alcotest.(check int) "rule count back to baseline" baseline_rules
          (Openflow.Flow_table.size (Openflow.Switch.table rig.switch));
        Alcotest.(check (option (float 1e-9))) "groups_live gauge agrees"
          (Some (float_of_int baseline_groups))
          (Obs.Metrics.find_gauge (Sim.Engine.metrics rig.engine)
             "controller.groups_live");
        (* Re-creating the same shape of group recycles the freed pair. *)
        announce rig 0 ["3.0.0.0/24"];
        announce rig 2 ["3.0.0.0/24"];
        let recreated =
          List.filter
            (fun (b : Supercharger.Backup_group.binding) ->
              List.exists (Net.Ipv4.equal (ip "10.0.0.4")) b.next_hops)
            (Supercharger.Backup_group.all groups)
        in
        match recreated with
        | [b] ->
          Alcotest.(check string) "vnh recycled" (Net.Ipv4.to_string churn_vnh)
            (Net.Ipv4.to_string b.vnh)
        | _ -> Alcotest.fail "expected the (p0, p2) group to be recreated");
    Alcotest.test_case "quiescent tracks in-flight convergence work" `Quick
      (fun () ->
        let rig = make_rig () in
        announce rig 0 ["1.0.0.0/24"];
        announce rig 1 ["1.0.0.0/24"];
        Alcotest.(check bool) "quiet at rest" true
          (Supercharger.Controller.quiescent rig.controller);
        (* Cut the primary: between BFD detection and the last barrier
           ack (and through the debounced slow-path withdrawal) the
           predicate must report work in flight. The busy window is
           wider than the 10 ms polling grid, so polling cannot miss
           it. *)
        Net.Link.set_up rig.peer_links.(0) false;
        let saw_busy = ref false in
        for _ = 1 to 100 do
          run_for rig 0.01;
          if not (Supercharger.Controller.quiescent rig.controller) then
            saw_busy := true
        done;
        Alcotest.(check bool) "busy during failover" true !saw_busy;
        settle rig;
        Alcotest.(check bool) "quiet again" true
          (Supercharger.Controller.quiescent rig.controller));
  ]

let suite = [("supercharger.controller", controller_tests)]
