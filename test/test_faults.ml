(* Scenario harness for the fault-injection layer: seeded chaos on the
   BGP channels, the OpenFlow control path and BFD, with convergence
   invariants checked after every storm. Every scenario derives its
   fault schedule from [scenario_seed] (the FAULT_SEED environment
   variable when set), which is printed below so a failing run can be
   replayed bit-for-bit. *)

let scenario_seed =
  match Sys.getenv_opt "FAULT_SEED" with
  | Some s -> Int64.of_string s
  | None -> 42L

let () =
  Fmt.epr "[test_faults] FAULT_SEED=%Ld (export FAULT_SEED to replay)@."
    scenario_seed

(* --- injector unit tests ----------------------------------------------- *)

let plans n injector = List.init n (fun _ -> Sim.Faults.plan injector)

let verdict_fingerprint verdicts =
  Fmt.str "%a"
    Fmt.(
      list ~sep:(any ";") (fun ppf -> function
        | Sim.Faults.Drop -> Fmt.string ppf "D"
        | Sim.Faults.Deliver extras ->
          Fmt.pf ppf "d%a" (list ~sep:(any ",") (fun ppf e -> Fmt.pf ppf "%Ld" (Sim.Time.to_ns e))) extras))
    verdicts

let injector_tests =
  [
    Alcotest.test_case "same seed draws the same fault schedule" `Quick (fun () ->
        let mk () =
          Sim.Faults.create (Sim.Engine.create ()) ~seed:7L Sim.Faults.chaos
        in
        let a = mk () and b = mk () in
        Alcotest.(check string) "verdicts identical"
          (verdict_fingerprint (plans 300 a))
          (verdict_fingerprint (plans 300 b));
        Alcotest.(check (list int)) "counters identical"
          [ Sim.Faults.decisions a; Sim.Faults.dropped a; Sim.Faults.delayed a;
            Sim.Faults.duplicated a ]
          [ Sim.Faults.decisions b; Sim.Faults.dropped b; Sim.Faults.delayed b;
            Sim.Faults.duplicated b ];
        Alcotest.(check bool) "chaos actually dropped something" true
          (Sim.Faults.dropped a > 0));
    Alcotest.test_case "named profiles resolve, junk does not" `Quick (fun () ->
        List.iter
          (fun name ->
            match Sim.Faults.of_name name with
            | Some p -> Alcotest.(check string) "label" name p.Sim.Faults.label
            | None -> Alcotest.failf "profile %s not found" name)
          ["none"; "lossy"; "chaos"; "blackout"];
        Alcotest.(check bool) "unknown name" true
          (Sim.Faults.of_name "cosmic-rays" = None));
    Alcotest.test_case "invalid probabilities are rejected" `Quick (fun () ->
        let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
        Alcotest.(check bool) "drop > 1" true
          (invalid (fun () -> Sim.Faults.profile ~drop:1.5 "bad"));
        Alcotest.(check bool) "negative duplicate" true
          (invalid (fun () -> Sim.Faults.profile ~duplicate:(-0.1) "bad"));
        Alcotest.(check bool) "inverted delay bounds" true
          (invalid (fun () ->
               Sim.Faults.profile ~delay_min:(Sim.Time.of_ms 2)
                 ~delay_max:(Sim.Time.of_ms 1) "bad")));
    Alcotest.test_case "during opens a window and restores the profile" `Quick
      (fun () ->
        let engine = Sim.Engine.create () in
        let injector = Sim.Faults.create engine ~seed:1L Sim.Faults.none in
        Sim.Faults.during injector ~from:(Sim.Time.of_ms 10)
          ~until:(Sim.Time.of_ms 20) Sim.Faults.blackout;
        Sim.Engine.run ~until:(Sim.Time.of_ms 5) engine;
        Alcotest.(check string) "before" "none"
          (Sim.Faults.active injector).Sim.Faults.label;
        Alcotest.(check bool) "delivers before" true
          (Sim.Faults.plan injector <> Sim.Faults.Drop);
        Sim.Engine.run ~until:(Sim.Time.of_ms 12) engine;
        Alcotest.(check string) "inside" "blackout"
          (Sim.Faults.active injector).Sim.Faults.label;
        Alcotest.(check bool) "drops inside" true
          (Sim.Faults.plan injector = Sim.Faults.Drop);
        Sim.Engine.run ~until:(Sim.Time.of_ms 25) engine;
        Alcotest.(check string) "restored" "none"
          (Sim.Faults.active injector).Sim.Faults.label;
        Alcotest.(check bool) "delivers after" true
          (Sim.Faults.plan injector <> Sim.Faults.Drop));
    Alcotest.test_case "a blacked-out channel delivers nothing" `Quick (fun () ->
        let engine = Sim.Engine.create () in
        let ch = Bgp.Channel.create engine () in
        let got = ref 0 in
        Bgp.Channel.attach ch Bgp.Channel.B (fun _ -> incr got);
        let injector = Sim.Faults.create engine ~seed:3L Sim.Faults.blackout in
        Bgp.Channel.set_faults ch injector;
        for _ = 1 to 10 do Bgp.Channel.send ch Bgp.Channel.A Bgp.Message.Keepalive done;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) engine;
        Alcotest.(check int) "all dropped" 0 !got;
        Alcotest.(check int) "all counted" 10 (Sim.Faults.dropped injector);
        Sim.Faults.set_profile injector Sim.Faults.none;
        Bgp.Channel.send ch Bgp.Channel.A Bgp.Message.Keepalive;
        Sim.Engine.run ~until:(Sim.Time.of_sec 2.0) engine;
        Alcotest.(check int) "healthy again" 1 !got);
    Alcotest.test_case "duplicates deliver two copies" `Quick (fun () ->
        let engine = Sim.Engine.create () in
        let ch = Bgp.Channel.create engine () in
        let got = ref 0 in
        Bgp.Channel.attach ch Bgp.Channel.B (fun _ -> incr got);
        let injector =
          Sim.Faults.create engine ~seed:4L
            (Sim.Faults.profile ~duplicate:1.0 "dup-everything")
        in
        Bgp.Channel.set_faults ch injector;
        Bgp.Channel.send ch Bgp.Channel.A Bgp.Message.Keepalive;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) engine;
        Alcotest.(check int) "two copies" 2 !got;
        Alcotest.(check int) "counted" 1 (Sim.Faults.duplicated injector));
    Alcotest.test_case "an extra delay reorders messages" `Quick (fun () ->
        let engine = Sim.Engine.create () in
        let ch = Bgp.Channel.create engine () in
        let order = ref [] in
        Bgp.Channel.attach ch Bgp.Channel.B (fun msg ->
            match msg with
            | Bgp.Message.Update { nlri = [p]; _ } ->
              order := Net.Prefix.to_string p :: !order
            | _ -> ());
        let slow =
          Sim.Faults.profile ~delay_prob:1.0 ~delay_min:(Sim.Time.of_ms 5)
            ~delay_max:(Sim.Time.of_ms 5) "slow"
        in
        let injector = Sim.Faults.create engine ~seed:5L slow in
        Bgp.Channel.set_faults ch injector;
        let update p =
          Bgp.Message.Update
            { withdrawn = []; attrs = None; nlri = [Net.Prefix.v p] }
        in
        Bgp.Channel.send ch Bgp.Channel.A (update "1.0.0.0/24");
        Sim.Faults.set_profile injector Sim.Faults.none;
        Bgp.Channel.send ch Bgp.Channel.A (update "2.0.0.0/24");
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) engine;
        Alcotest.(check (list string)) "undelayed message overtook"
          ["1.0.0.0/24"; "2.0.0.0/24"] (* newest first *)
          !order);
  ]

(* --- the scenario rig --------------------------------------------------- *)

(* The Fig. 4 lab with one controller replica and a recording R1, plus
   a fault injector on every message path: one per upstream BGP channel,
   one on the controller->router channel and one on the OpenFlow control
   path. All injectors start on the [none] profile; scenarios open
   windows with [Sim.Faults.during]. *)
type rig = {
  engine : Sim.Engine.t;
  switch : Openflow.Switch.t;
  controller : Supercharger.Controller.t;
  peers : Router.Peer.t array;
  peer_links : Net.Link.t array;
  channel_faults : Sim.Faults.t array;
  router_faults : Sim.Faults.t;
  of_faults : Sim.Faults.t;
  router_rx : Bgp.Message.update Stack.t;  (** newest on top *)
}

let make_rig ?(seed = 9L) ?(n_peers = 2) ?(bfd_debounce = Sim.Time.of_ms 100)
    ?(ack_timeout = Sim.Time.of_ms 100) ?(probe_interval = Sim.Time.of_ms 250) () =
  let engine = Sim.Engine.create ~seed () in
  let injector name salt =
    Sim.Faults.create engine ~name ~seed:(Int64.add seed (Int64.of_int salt))
      Sim.Faults.none
  in
  let of_faults = injector "of" 7777 in
  let lab =
    Experiments.Lab.create engine ~of_codec:true ~of_faults
      ~controller:(fun create ->
        create ~bfd_debounce ~ack_timeout ~probe_interval ())
      ~n_peers ~replicas:1 ()
  in
  let { Experiments.Lab.controller; upstream; downstream } = lab.replicas.(0) in
  let channel_faults =
    Array.mapi
      (fun i ch ->
        let inj = injector (Fmt.str "ch%d" i) (1000 * (i + 1)) in
        Bgp.Channel.set_faults ch inj;
        inj)
      upstream
  in
  let router_faults = injector "router-ch" 8888 in
  Bgp.Channel.set_faults downstream router_faults;
  Experiments.Lab.start lab;
  Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) engine;
  { engine; switch = lab.switch; controller; peers = lab.peers;
    peer_links = lab.peer_links; channel_faults; router_faults; of_faults;
    router_rx = lab.router_rx }

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
  Sim.Engine.run
    ~until:(Sim.Time.add (Sim.Engine.now rig.engine) (Sim.Time.of_ms 100))
    rig.engine

let run_until rig s = Sim.Engine.run ~until:(Sim.Time.of_sec s) rig.engine

let at rig s f = ignore (Sim.Engine.schedule_at rig.engine (Sim.Time.of_sec s) f)

let inject_flap rig peer_idx =
  match
    Supercharger.Controller.bfd_session rig.controller
      (Router.Peer.ip rig.peers.(peer_idx))
  with
  | Some session -> Bfd.Session.inject_state session Bfd.Packet.Down
  | None -> Alcotest.fail "no BFD session towards the peer"

let counter rig name =
  Option.value ~default:0
    (Obs.Metrics.find_counter (Sim.Engine.metrics rig.engine) name)

(* --- convergence invariants -------------------------------------------- *)

let distinct_nhs routes =
  List.fold_left
    (fun acc r ->
      let nh = Bgp.Route.next_hop r in
      if List.exists (Net.Ipv4.equal nh) acc then acc else acc @ [nh])
    [] routes

(* Invariant: no lost prefixes. Every prefix with candidates in the
   controller's RIB is announced downstream with exactly the next hop
   Listing 1 (or the degraded passthrough) would pick — nothing dropped,
   nothing stale, regardless of what the fault schedule ate. *)
let check_no_lost_prefixes rig =
  let rib = Supercharger.Controller.rib rig.controller in
  let algo = Supercharger.Controller.algorithm rig.controller in
  let groups = Supercharger.Controller.groups rig.controller in
  let live_prefixes =
    Bgp.Rib.fold rib ~init:[] ~f:(fun acc prefix routes ->
        if routes = [] then acc else prefix :: acc)
  in
  List.iter
    (fun prefix ->
      let routes = Bgp.Rib.ordered rib prefix in
      let expected =
        match routes with
        | [] -> None
        | best :: _ -> (
          match distinct_nhs routes with
          | [] | [_] -> Some (Bgp.Route.next_hop best)
          | nhs ->
            if Supercharger.Algorithm.passthrough algo then
              Some (Bgp.Route.next_hop best)
            else (
              match Supercharger.Backup_group.find groups nhs with
              | Some b -> Some b.Supercharger.Backup_group.vnh
              | None -> None))
      in
      let got =
        Option.map
          (fun (a : Bgp.Attributes.t) -> a.Bgp.Attributes.next_hop)
          (Supercharger.Algorithm.last_announced algo prefix)
      in
      Alcotest.(check bool)
        (Fmt.str "%a announced with %a (got %a)" Net.Prefix.pp prefix
           Fmt.(option ~none:(any "-") Net.Ipv4.pp)
           expected
           Fmt.(option ~none:(any "-") Net.Ipv4.pp)
           got)
        true
        (Option.equal Net.Ipv4.equal expected got))
    live_prefixes;
  Alcotest.(check int) "every live prefix is announced"
    (List.length live_prefixes)
    (Supercharger.Algorithm.announced_count algo)

(* Invariant: no stale VMAC rules. Every group still referenced by an
   announced prefix has a switch rule on its VMAC pointing at the first
   alive member (or a drop rule when nothing is alive). *)
let check_no_stale_rules rig =
  let groups = Supercharger.Controller.groups rig.controller in
  let prov = Supercharger.Controller.provisioner rig.controller in
  let table = Openflow.Switch.table rig.switch in
  List.iter
    (fun (b : Supercharger.Backup_group.binding) ->
      if Supercharger.Backup_group.refs b > 0 then begin
        let entry =
          List.find_opt
            (fun (e : Openflow.Flow_table.entry) ->
              Option.equal Net.Mac.equal e.ofmatch.Openflow.Ofmatch.dl_dst
                (Some b.vmac))
            (Openflow.Flow_table.entries table)
        in
        match entry with
        | None ->
          Alcotest.failf "live group %a has no switch rule"
            Supercharger.Backup_group.pp_binding b
        | Some e -> (
          match List.find_opt (Supercharger.Provisioner.is_alive prov) b.next_hops with
          | None ->
            Alcotest.(check bool)
              (Fmt.str "group %a (all members dead) has a drop rule"
                 Supercharger.Backup_group.pp_binding b)
              true (e.actions = [])
          | Some alive -> (
            match Supercharger.Provisioner.peer prov alive, e.actions with
            | Some info, [Openflow.Action.Set_dl_dst m; Openflow.Action.Output p] ->
              Alcotest.(check bool)
                (Fmt.str "rule of %a points at live member %a"
                   Supercharger.Backup_group.pp_binding b Net.Ipv4.pp alive)
                true
                (Net.Mac.equal m info.Supercharger.Provisioner.pi_mac
                && p = info.Supercharger.Provisioner.pi_port)
            | _, actions ->
              Alcotest.failf "unexpected actions (%d) on rule of %a"
                (List.length actions) Supercharger.Backup_group.pp_binding b))
      end)
    (Supercharger.Backup_group.all groups)

(* --- scenario: 10% message loss + a BFD flap storm ---------------------- *)

(* Four peers, ten prefixes per peer pair: six backup-groups. Kill peer
   0 for real inside a lossy window while peer 3's BFD flaps three
   times. The debounce must absorb every flap (no RIB churn), and the
   final state must satisfy both invariants with at most twice the
   fault-free flow-mod count. *)
let pair_prefixes i j = List.init 10 (fun k -> Fmt.str "%d.%d.%d.0/24" (100 + i) j k)

let lossy_scenario ~seed ~faulty () =
  let rig =
    make_rig ~seed ~n_peers:4 ~bfd_debounce:(Sim.Time.of_ms 400) ()
  in
  (* Each peer announces the batches of every pair it belongs to; the
     import LOCAL_PREF ladder (200, 190, 180, 170) fixes the group
     tuples to (p_i, p_j) with i < j. *)
  for i = 0 to 3 do
    let mine =
      List.concat
        (List.filter_map
           (fun (a, b) ->
             if a = i || b = i then Some (pair_prefixes a b) else None)
           [(0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3)])
    in
    announce rig i mine
  done;
  (* Background churn: peer 1 flaps a single-homed prefix through the
     whole scenario, so the lossy window has a steady message stream to
     chew on (keepalives alone are 30 s apart). The prefix never forms a
     group, so the churn adds no flow-mods to either run. *)
  let churn_attrs =
    Bgp.Attributes.make
      ~as_path:[Bgp.Attributes.Seq [Router.Peer.asn rig.peers.(1)]]
      ~next_hop:(Router.Peer.ip rig.peers.(1)) ()
  in
  for k = 0 to 43 do
    at rig (1.8 +. (0.05 *. float_of_int k)) (fun () ->
        let u =
          if k mod 2 = 0 then
            { Bgp.Message.withdrawn = []; attrs = Some churn_attrs;
              nlri = [Net.Prefix.v "77.7.7.0/24"] }
          else
            { Bgp.Message.withdrawn = [Net.Prefix.v "77.7.7.0/24"];
              attrs = None; nlri = [] }
        in
        Router.Peer.announce_to_all rig.peers.(1) u)
  done;
  if faulty then begin
    (* Loss starts only after the topology is announced: BGP has no
       retransmission, so a dropped announcement would change the
       scenario rather than stress it. *)
    Array.iter
      (fun inj ->
        Sim.Faults.during inj ~from:(Sim.Time.of_sec 1.5)
          ~until:(Sim.Time.of_sec 4.5) Sim.Faults.lossy)
      rig.channel_faults;
    Sim.Faults.during rig.router_faults ~from:(Sim.Time.of_sec 1.5)
      ~until:(Sim.Time.of_sec 4.5) Sim.Faults.lossy;
    at rig 2.3 (fun () -> inject_flap rig 3);
    at rig 2.7 (fun () -> inject_flap rig 3);
    at rig 3.1 (fun () -> inject_flap rig 3)
  end;
  run_until rig 1.6;
  Net.Link.set_up rig.peer_links.(0) false;
  run_until rig 6.0;
  rig

let scenario_fingerprint rig =
  let injector inj =
    Fmt.str "%d/%d/%d/%d" (Sim.Faults.decisions inj) (Sim.Faults.dropped inj)
      (Sim.Faults.delayed inj) (Sim.Faults.duplicated inj)
  in
  Fmt.str "ch=[%s] router=%s of=%s flow_mods=%d failovers=%d announced=%d \
           ack_timeouts=%d retries=%d suppressed=%d degradations=%d recoveries=%d"
    (String.concat ";" (Array.to_list (Array.map injector rig.channel_faults)))
    (injector rig.router_faults) (injector rig.of_faults)
    (Supercharger.Provisioner.flow_mods_sent
       (Supercharger.Controller.provisioner rig.controller))
    (Supercharger.Controller.failovers_handled rig.controller)
    (Supercharger.Algorithm.announced_count
       (Supercharger.Controller.algorithm rig.controller))
    (counter rig "controller.ack_timeouts")
    (counter rig "controller.rule_retries")
    (counter rig "controller.bfd_flaps_suppressed")
    (counter rig "controller.degradations")
    (counter rig "controller.recoveries")

let scenario_tests =
  [
    Alcotest.test_case "lossy window + flap storm: invariants hold" `Quick
      (fun () ->
        Fmt.epr "[test_faults] lossy scenario seed %Ld@." scenario_seed;
        let baseline = lossy_scenario ~seed:scenario_seed ~faulty:false () in
        let rig = lossy_scenario ~seed:scenario_seed ~faulty:true () in
        check_no_lost_prefixes rig;
        check_no_stale_rules rig;
        (* The debounce absorbed every spurious flap: peer 3's routes
           never left the RIB and no degradation was triggered. *)
        Alcotest.(check int) "three flaps suppressed" 3
          (counter rig "controller.bfd_flaps_suppressed");
        Alcotest.(check int) "no degradation" 0
          (counter rig "controller.degradations");
        Alcotest.(check bool) "supercharged mode" false
          (Supercharger.Controller.degraded rig.controller);
        (match
           Bgp.Rib.ordered
             (Supercharger.Controller.rib rig.controller)
             (Net.Prefix.v (List.hd (pair_prefixes 1 3)))
         with
        | [_; _] -> ()
        | routes ->
          Alcotest.failf "flapped peer lost routes: %d left" (List.length routes));
        (* Bounded churn: the storm may at most double the rule updates
           of the fault-free failover. *)
        let mods r =
          Supercharger.Provisioner.flow_mods_sent
            (Supercharger.Controller.provisioner r.controller)
        in
        Alcotest.(check bool)
          (Fmt.str "%d faulty <= 2 x %d fault-free" (mods rig) (mods baseline))
          true
          (mods rig <= 2 * mods baseline);
        (* The window saw real traffic and the injectors chewed on it:
           44 churn messages at 10% drop / 20% delay leave the odds of a
           completely clean pass below 1e-6 for any seed. *)
        Alcotest.(check bool) "churn crossed the lossy channel" true
          (Sim.Faults.decisions rig.channel_faults.(1) >= 40);
        let injected =
          Array.fold_left
            (fun acc inj -> acc + Sim.Faults.dropped inj + Sim.Faults.delayed inj)
            (Sim.Faults.dropped rig.router_faults
            + Sim.Faults.delayed rig.router_faults)
            rig.channel_faults
        in
        Alcotest.(check bool) "faults actually fired" true (injected > 0));
    Alcotest.test_case "same seed replays the identical scenario" `Quick
      (fun () ->
        let a = lossy_scenario ~seed:scenario_seed ~faulty:true () in
        let b = lossy_scenario ~seed:scenario_seed ~faulty:true () in
        Alcotest.(check string) "fingerprints equal" (scenario_fingerprint a)
          (scenario_fingerprint b));
    Alcotest.test_case "the seed-42 lossy scenario replays a pinned fingerprint"
      `Quick (fun () ->
        (* A fixed seed, not FAULT_SEED: this pins the rig's exact event
           sequence, so a change to how the rig is built shows up here. *)
        Alcotest.(check string) "fingerprint"
          "ch=[5/0/0/0;49/4/12/0;5/0/0/0;5/0/0/0] router=54/6/3/0 of=44/0/0/0 \
           flow_mods=15 failovers=4 announced=60 ack_timeouts=0 retries=0 \
           suppressed=3 degradations=0 recoveries=0"
          (scenario_fingerprint (lossy_scenario ~seed:42L ~faulty:true ())));
    Alcotest.test_case "switch blackout degrades, recovery re-supercharges"
      `Quick (fun () ->
        Fmt.epr "[test_faults] blackout scenario seed %Ld@." scenario_seed;
        (* A long debounce keeps the RIB multi-homed through the whole
           blackout, so the degradation's passthrough announcements are
           observable as real-next-hop re-announcements. *)
        let rig =
          make_rig ~seed:scenario_seed ~ack_timeout:(Sim.Time.of_ms 50)
            ~probe_interval:(Sim.Time.of_ms 100)
            ~bfd_debounce:(Sim.Time.of_sec 2.0) ()
        in
        let prefixes = List.init 20 (fun i -> Fmt.str "9.9.%d.0/24" i) in
        announce rig 0 prefixes;
        announce rig 1 prefixes;
        Sim.Faults.during rig.of_faults ~from:(Sim.Time.of_sec 1.3)
          ~until:(Sim.Time.of_sec 2.5) Sim.Faults.blackout;
        run_until rig 1.4;
        Net.Link.set_up rig.peer_links.(0) false;
        (* BFD detects ~1.55s; the ladder burns its three attempts
           against the black hole and degrades around 1.9s. *)
        run_until rig 2.2;
        Alcotest.(check bool) "degraded during blackout" true
          (Supercharger.Controller.degraded rig.controller);
        Alcotest.(check int) "one degradation" 1
          (counter rig "controller.degradations");
        Alcotest.(check bool) "ladder retried before giving up" true
          (counter rig "controller.rule_retries" >= 2);
        (* Passthrough: the router now sees real next hops, not VNHs. *)
        (match Stack.top_opt rig.router_rx with
        | Some { Bgp.Message.attrs = Some attrs; _ } ->
          Alcotest.(check bool) "legacy-path announcement" true
            (Supercharger.Backup_group.find_by_vnh
               (Supercharger.Controller.groups rig.controller)
               attrs.Bgp.Attributes.next_hop
            = None)
        | _ -> Alcotest.fail "no passthrough announcement reached the router");
        (* The window closes at 2.5s: the next probe is answered, rules
           are re-installed and the VNHs re-announced. *)
        run_until rig 3.0;
        Alcotest.(check bool) "recovered" false
          (Supercharger.Controller.degraded rig.controller);
        Alcotest.(check int) "one recovery" 1
          (counter rig "controller.recoveries");
        (match Stack.top_opt rig.router_rx with
        | Some { Bgp.Message.attrs = Some attrs; _ } ->
          Alcotest.(check bool) "supercharged announcement is back" true
            (Supercharger.Backup_group.find_by_vnh
               (Supercharger.Controller.groups rig.controller)
               attrs.Bgp.Attributes.next_hop
            <> None)
        | _ -> Alcotest.fail "no recovery announcement reached the router");
        check_no_stale_rules rig;
        (* Let the debounced slow path run and settle everything. *)
        run_until rig 4.5;
        check_no_lost_prefixes rig;
        check_no_stale_rules rig);
  ]

(* --- e2e paper replication: Listing 2 at 10k prefixes ------------------- *)

let e2e_tests =
  [
    Alcotest.test_case "10k prefixes: failover cost is #groups, not #prefixes"
      `Slow (fun () ->
        let rig = make_rig ~seed:scenario_seed ~n_peers:3 () in
        (* 10,000 prefixes: 9,000 homed on (p0, p1), 1,000 on (p0, p2) —
           two backup-groups in total. *)
        let prefix i = Fmt.str "%d.%d.%d.0/24" (30 + (i / 65536)) (i / 256 mod 256) (i mod 256) in
        let all = List.init 10_000 prefix in
        let first_9000 = List.filteri (fun i _ -> i < 9_000) all in
        let last_1000 = List.filteri (fun i _ -> i >= 9_000) all in
        announce rig 0 all;
        announce rig 1 first_9000;
        announce rig 2 last_1000;
        let algo = Supercharger.Controller.algorithm rig.controller in
        Alcotest.(check int) "all 10k announced" 10_000
          (Supercharger.Algorithm.announced_count algo);
        Alcotest.(check int) "only two backup-groups" 2
          (List.length
             (Supercharger.Backup_group.all
                (Supercharger.Controller.groups rig.controller)));
        let table_before =
          Openflow.Flow_table.size (Openflow.Switch.table rig.switch)
        in
        let applied_before = Openflow.Switch.flow_mods_applied rig.switch in
        let failover_mods = ref None in
        Supercharger.Controller.on_failover rig.controller
          (fun ~failed:_ ~flow_mods -> failover_mods := Some flow_mods);
        Net.Link.set_up rig.peer_links.(0) false;
        Sim.Engine.run
          ~until:(Sim.Time.add (Sim.Engine.now rig.engine) (Sim.Time.of_sec 2.0))
          rig.engine;
        (* Listing 2's invariant: the data-plane repair re-points exactly
           the groups whose selected member failed — independent of the
           10,000 prefixes riding on them. *)
        (match !failover_mods with
        | Some n -> Alcotest.(check int) "flow-mods == #groups of the peer" 2 n
        | None -> Alcotest.fail "failover did not run");
        Alcotest.(check int) "switch applied exactly the group rewrites"
          (applied_before + 2)
          (Openflow.Switch.flow_mods_applied rig.switch);
        Alcotest.(check int) "zero per-prefix churn in the flow table"
          table_before
          (Openflow.Flow_table.size (Openflow.Switch.table rig.switch));
        (* The slow path withdrew peer 0's routes; every prefix survives
           on its remaining provider. *)
        Alcotest.(check int) "no lost prefixes at 10k" 10_000
          (Supercharger.Algorithm.announced_count algo);
        Alcotest.(check int) "one failover handled" 1
          (Supercharger.Controller.failovers_handled rig.controller);
        check_no_lost_prefixes rig;
        check_no_stale_rules rig);
  ]

let suite =
  [
    ("faults.injector", injector_tests);
    ("faults.scenarios", scenario_tests);
    ("faults.e2e", e2e_tests);
  ]
