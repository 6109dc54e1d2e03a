(* Tests for the differential checker itself: the flat-FIB oracle's
   decision process, schedule determinism and shrinking, the
   side-effect-free switch probe, and the end-to-end harness. The bugs
   the harness exists to catch are patches in test/mutants, run by
   .github/mutants.sh. *)

let ip = Net.Ipv4.of_string_exn
let mac = Net.Mac.of_string_exn
let pfx = Net.Prefix.v

(* --- oracle ------------------------------------------------------------ *)

let make_oracle () =
  let o = Check.Oracle.create () in
  Check.Oracle.declare_peer o ~id:0 ~ip:(ip "10.0.0.2")
    ~mac:(mac "00:bb:00:00:00:02") ~port:1;
  Check.Oracle.declare_peer o ~id:1 ~ip:(ip "10.0.0.3")
    ~mac:(mac "00:bb:00:00:00:03") ~port:2;
  o

let attrs ?(pref = 100) ?(path_len = 1) nh =
  Bgp.Attributes.make ~local_pref:pref
    ~as_path:[Bgp.Attributes.Seq (List.init path_len (fun _ -> Bgp.Asn.of_int 65002))]
    ~next_hop:(ip nh) ()

let hop_nh o p =
  Option.map (fun h -> h.Check.Oracle.nh) (Check.Oracle.lookup o p)

let nh_opt = Alcotest.(option (testable Net.Ipv4.pp Net.Ipv4.equal))

let oracle_tests =
  [
    Alcotest.test_case "higher LOCAL_PREF wins" `Quick (fun () ->
        let o = make_oracle () in
        let p = pfx "1.0.0.0/24" in
        Check.Oracle.announce o ~peer:0 p (attrs ~pref:100 "10.0.0.2");
        Check.Oracle.announce o ~peer:1 p (attrs ~pref:200 "10.0.0.3");
        Alcotest.check nh_opt "peer 1" (Some (ip "10.0.0.3")) (hop_nh o p));
    Alcotest.test_case "shorter AS path breaks the tie" `Quick (fun () ->
        let o = make_oracle () in
        let p = pfx "1.0.0.0/24" in
        Check.Oracle.announce o ~peer:0 p (attrs ~path_len:3 "10.0.0.2");
        Check.Oracle.announce o ~peer:1 p (attrs ~path_len:1 "10.0.0.3");
        Alcotest.check nh_opt "peer 1" (Some (ip "10.0.0.3")) (hop_nh o p));
    Alcotest.test_case "a dead peer's routes are masked, not deleted" `Quick
      (fun () ->
        let o = make_oracle () in
        let p = pfx "1.0.0.0/24" in
        Check.Oracle.announce o ~peer:0 p (attrs ~pref:300 "10.0.0.2");
        Check.Oracle.announce o ~peer:1 p (attrs ~pref:100 "10.0.0.3");
        Check.Oracle.peer_down o 0;
        Alcotest.check nh_opt "fails over" (Some (ip "10.0.0.3")) (hop_nh o p);
        Check.Oracle.peer_down o 1;
        Alcotest.check nh_opt "uncovered" None (hop_nh o p);
        Alcotest.(check int) "no covered prefixes" 0 (Check.Oracle.cardinal o);
        Check.Oracle.peer_up o 0;
        Alcotest.check nh_opt "recovers the better route" (Some (ip "10.0.0.2"))
          (hop_nh o p));
    Alcotest.test_case "withdraw removes the candidate" `Quick (fun () ->
        let o = make_oracle () in
        let p = pfx "1.0.0.0/24" in
        Check.Oracle.announce o ~peer:0 p (attrs "10.0.0.2");
        Check.Oracle.withdraw o ~peer:0 p;
        Check.Oracle.withdraw o ~peer:0 p (* no-op on absent route *);
        Alcotest.check nh_opt "gone" None (hop_nh o p));
    Alcotest.test_case "lookup carries the declared data-plane coordinates"
      `Quick (fun () ->
        let o = make_oracle () in
        let p = pfx "2.0.0.0/24" in
        Check.Oracle.announce o ~peer:1 p (attrs "10.0.0.3");
        match Check.Oracle.lookup o p with
        | Some h ->
          Alcotest.(check bool) "mac" true
            (Net.Mac.equal h.Check.Oracle.mac (mac "00:bb:00:00:00:03"));
          Alcotest.(check int) "port" 2 h.Check.Oracle.port
        | None -> Alcotest.fail "no hop");
    Alcotest.test_case "prefixes come back sorted" `Quick (fun () ->
        let o = make_oracle () in
        List.iter
          (fun s -> Check.Oracle.announce o ~peer:0 (pfx s) (attrs "10.0.0.2"))
          ["9.0.0.0/24"; "1.0.0.0/24"; "5.0.0.0/16"];
        let got = Check.Oracle.prefixes o in
        Alcotest.(check (list string)) "ascending"
          ["1.0.0.0/24"; "5.0.0.0/16"; "9.0.0.0/24"]
          (List.map Net.Prefix.to_string got));
  ]

(* --- schedules and shrinking ------------------------------------------- *)

let step ev = { Check.Schedule.ev; dwell_ms = 40 }

let schedule_tests =
  [
    Alcotest.test_case "generation is a pure function of the seed" `Quick
      (fun () ->
        let a = Check.Schedule.generate ~seed:99L () in
        let b = Check.Schedule.generate ~seed:99L () in
        let c = Check.Schedule.generate ~seed:100L () in
        Alcotest.(check string) "identical"
          (Fmt.str "%a" Check.Schedule.pp a)
          (Fmt.str "%a" Check.Schedule.pp b);
        Alcotest.(check bool) "seed matters" false
          (Fmt.str "%a" Check.Schedule.pp a = Fmt.str "%a" Check.Schedule.pp c));
    Alcotest.test_case "requested length is honoured" `Quick (fun () ->
        let s = Check.Schedule.generate ~seed:5L ~length:17 () in
        Alcotest.(check int) "17 events" 17 (Check.Schedule.length s));
    Alcotest.test_case "chaos:false draws no fault windows" `Quick (fun () ->
        (* BFD flaps stay in: they are ordinary control-plane events, not
           channel-fault windows. *)
        let s = Check.Schedule.generate ~seed:12L ~length:200 ~chaos:false () in
        List.iter
          (fun { Check.Schedule.ev; _ } ->
            match ev with
            | Check.Schedule.Of_blackout _ | Router_faults _ | Channel_dup _ ->
              Alcotest.failf "fault window in a clean schedule: %a"
                Check.Schedule.pp_event ev
            | Announce _ | Withdraw _ | Peer_down _ | Peer_up _ | Bfd_flap _ -> ())
          s.Check.Schedule.steps);
    Alcotest.test_case "shrinking keeps only what the failure needs" `Quick
      (fun () ->
        (* Synthetic failures, one per checker's event type: the
           predicate needs both key events; the eight others are noise
           the shrinker must strip. *)
        let strips name (key_a, key_b) noise =
          let events =
            List.concat
              [ List.filteri (fun i _ -> i < 4) noise; [ key_a ];
                List.filteri (fun i _ -> i >= 4) noise; [ key_b ] ]
          in
          let fails evs = List.mem key_a evs && List.mem key_b evs in
          let shrunk = Check.Shrink.list ~fails events in
          Alcotest.(check int) (name ^ ": two events survive") 2 (List.length shrunk);
          Alcotest.(check bool) (name ^ ": and they still fail") true (fails shrunk)
        in
        strips "check"
          ( step (Check.Schedule.Peer_down 0),
            step
              (Check.Schedule.Announce { peer = 1; prefix = 0; pref = 100; prepend = 0 }) )
          (List.map step
             [ Check.Schedule.Peer_up 1;
               Check.Schedule.Withdraw { peer = 0; prefix = 1 };
               Check.Schedule.Bfd_flap 1;
               Check.Schedule.Announce { peer = 0; prefix = 2; pref = 50; prepend = 1 };
               Check.Schedule.Of_blackout { span_ms = 10 };
               Check.Schedule.Peer_up 0;
               Check.Schedule.Withdraw { peer = 1; prefix = 3 };
               Check.Schedule.Channel_dup { peer = 0; span_ms = 10 } ]);
        let topo ev = { Check.Topo_run.ev; dwell_ms = 50 } in
        strips "topo-check"
          (topo (Check.Topo_run.Srlg_fail 0), topo (Check.Topo_run.Extern_fail 1))
          (List.init 8 (fun l -> topo (Check.Topo_run.Link_down l)));
        strips "ribscale-check"
          (Check.Ribscale.Peer_down 3, Check.Ribscale.Storm { peer = 1; share_pct = 40 })
          (List.init 8 (fun peer -> Check.Ribscale.Readvertise { peer })));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"shrink results are 1-minimal" ~count:500
         QCheck.(triple (small_list (0 -- 20)) (2 -- 6) (0 -- 5))
         (fun (events, k, r) ->
           (* A position-weighted sum mod k is not monotone, and dropping
              one event re-weights every later one, so an event that
              had to stay can become removable after another goes. *)
           let fails evs =
             List.fold_left ( + ) 0 (List.mapi (fun i x -> (i + 1) * x) evs) mod k = r
           in
           let shrunk = Check.Shrink.list ~fails events in
           if not (fails events) then shrunk = events
           else
             fails shrunk
             && List.for_all
                  (fun i -> not (fails (List.filteri (fun j _ -> j <> i) shrunk)))
                  (List.init (List.length shrunk) Fun.id)));
    Alcotest.test_case "shrink is the identity on passing schedules" `Quick
      (fun () ->
        let sched = Check.Schedule.generate ~seed:3L ~length:10 () in
        let steps = Check.Shrink.list ~fails:(fun _ -> false) sched.steps in
        Alcotest.(check int) "untouched" 10 (List.length steps);
        Alcotest.(check string) "same schedule"
          (Fmt.str "%a" Check.Schedule.pp sched)
          (Fmt.str "%a" Check.Schedule.pp { sched with steps }));
  ]

(* --- the side-effect-free switch probe --------------------------------- *)

let probe_frame dst =
  Net.Ethernet.make ~src:(mac "00:cc:00:00:00:01") ~dst
    (Net.Ethernet.Ipv4
       (Net.Ipv4_packet.make ~src:(ip "10.0.0.100") ~dst:(ip "1.0.0.1")
          (Net.Ipv4_packet.Raw { protocol = 6; body = "" })))

let resolve_tests =
  [
    Alcotest.test_case "resolve walks the rewrite pipeline" `Quick (fun () ->
        let e = Sim.Engine.create ~seed:1L () in
        let sw = Openflow.Switch.create e ~n_ports:4 () in
        let vmac = mac "00:ff:00:00:00:01" in
        let peer_mac = mac "00:bb:00:00:00:02" in
        Openflow.Flow_table.apply (Openflow.Switch.table sw)
          (Openflow.Flow_table.flow_mod ~priority:100 Openflow.Flow_table.Add
             (Openflow.Ofmatch.dl_dst vmac)
             [Openflow.Action.Set_dl_dst peer_mac; Openflow.Action.Output 2]);
        (match Openflow.Switch.resolve sw ~port:3 (probe_frame vmac) with
        | Openflow.Switch.Forward (f, [2]) ->
          Alcotest.(check bool) "rewritten" true
            (Net.Mac.equal f.Net.Ethernet.dst peer_mac)
        | _ -> Alcotest.fail "expected Forward to port 2");
        Alcotest.(check int) "no counter side effects" 0
          (Openflow.Switch.packets_forwarded sw));
    Alcotest.test_case "miss, blackhole and punt are distinguished" `Quick
      (fun () ->
        let e = Sim.Engine.create ~seed:1L () in
        let sw = Openflow.Switch.create e ~n_ports:4 () in
        let dead = mac "00:ff:00:00:00:02" in
        let punted = mac "00:ff:00:00:00:03" in
        Openflow.Flow_table.apply (Openflow.Switch.table sw)
          (Openflow.Flow_table.flow_mod ~priority:100 Openflow.Flow_table.Add
             (Openflow.Ofmatch.dl_dst dead) []);
        Openflow.Flow_table.apply (Openflow.Switch.table sw)
          (Openflow.Flow_table.flow_mod ~priority:100 Openflow.Flow_table.Add
             (Openflow.Ofmatch.dl_dst punted)
             [Openflow.Action.To_controller]);
        let kind m =
          match Openflow.Switch.resolve sw ~port:3 (probe_frame m) with
          | Openflow.Switch.Forward _ -> "forward"
          | Openflow.Switch.Punt -> "punt"
          | Openflow.Switch.Miss -> "miss"
          | Openflow.Switch.Blackhole -> "blackhole"
        in
        Alcotest.(check string) "empty actions" "blackhole" (kind dead);
        Alcotest.(check string) "to-controller" "punt" (kind punted);
        Alcotest.(check string) "no rule" "miss" (kind (mac "00:ff:00:00:00:04")));
  ]

(* --- the shared driver on a toy checker ---------------------------------- *)

(* Schedule [i] is [toy.(i)]; a schedule fails when it contains 3, with
   a violation that names its length, so the report shows which
   schedule was re-executed. *)
let toy = [| [ 1; 2 ]; [ 4; 5; 6 ]; [ 1; 3; 5; 3; 7 ]; [ 3 ] |]

let toy_execute l =
  if List.mem 3 l then [ Fmt.str "3 among %d steps" (List.length l) ] else []

let harness_tests =
  [
    Alcotest.test_case "stops at the first failure and shrinks it" `Quick (fun () ->
        let progressed = ref [] and reproduced = ref [] in
        let f =
          Check.Harness.run_matrix ~schedules:(Array.length toy)
            ~generate:(fun i -> toy.(i))
            ~execute:toy_execute ~steps:Fun.id
            ~with_steps:(fun _ steps -> steps)
            ~reproduce:(fun i _ ->
              reproduced := i :: !reproduced;
              Fmt.str "toy %d" i)
            ~progress:(fun i -> progressed := i :: !progressed)
        in
        let f = Option.get f in
        Alcotest.(check (list int)) "progress once per index, up to the failure"
          [ 0; 1; 2 ] (List.rev !progressed);
        Alcotest.(check (list int)) "schedule" [ 1; 3; 5; 3; 7 ] f.schedule;
        Alcotest.(check (list int)) "the Shrink.list minimum" [ 3 ] f.shrunk;
        Alcotest.(check (list string)) "violations of the shrunk schedule"
          [ "3 among 1 steps" ] f.violations;
        Alcotest.(check (list int)) "reproduce gets the failing index" [ 2 ]
          !reproduced;
        Alcotest.(check string) "reproduce line" "toy 2" f.reproduce);
    Alcotest.test_case "a clean matrix runs every schedule" `Quick (fun () ->
        let progressed = ref 0 in
        let r =
          Check.Harness.run_matrix ~schedules:2
            ~generate:(fun i -> toy.(i))
            ~execute:toy_execute ~steps:Fun.id
            ~with_steps:(fun _ steps -> steps)
            ~reproduce:(fun _ _ -> Alcotest.fail "nothing to reproduce")
            ~progress:(fun _ -> incr progressed)
        in
        Alcotest.(check bool) "no failure" true (Option.is_none r);
        Alcotest.(check int) "two schedules" 2 !progressed);
  ]

(* --- size limits ---------------------------------------------------------- *)

(* Each generator takes its largest size and rejects the next one with
   a message that states the limit. *)
let rejects ~limit f =
  match f () with
  | _ -> Alcotest.fail "accepted an out-of-range size"
  | exception Invalid_argument msg ->
    let limit = string_of_int limit in
    let n = String.length limit in
    let rec mentions i =
      i + n <= String.length msg && (String.sub msg i n = limit || mentions (i + 1))
    in
    if not (mentions 0) then Alcotest.failf "%S does not state the limit %s" msg limit

let bounds_tests =
  [
    Alcotest.test_case "Schedule.generate: at most 65536 prefixes" `Quick (fun () ->
        ignore (Check.Schedule.generate ~seed:1L ~n_prefixes:65_536 ());
        rejects ~limit:65_536 (fun () ->
            Check.Schedule.generate ~seed:1L ~n_prefixes:65_537 ()));
    Alcotest.test_case "Topo_run.generate: 1 to 256 prefixes" `Quick (fun () ->
        ignore (Check.Topo_run.generate ~seed:1L ~n_prefixes:256 ());
        rejects ~limit:256 (fun () -> Check.Topo_run.generate ~seed:1L ~n_prefixes:257 ());
        rejects ~limit:256 (fun () -> Check.Topo_run.generate ~seed:1L ~n_prefixes:0 ()));
    Alcotest.test_case "Ribscale: at most 51200 peers" `Quick (fun () ->
        ignore (Check.Ribscale.generate ~seed:1L ~n_peers:51_200 ());
        rejects ~limit:51_200 (fun () ->
            Check.Ribscale.generate ~seed:1L ~n_peers:51_201 ());
        rejects ~limit:51_200 (fun () ->
            Check.Ribscale.run_matrix ~n_peers:100_000 ~entries:10 ~schedules:1
              ~seed:1L ()));
    Alcotest.test_case "Lab.create: at most 98 peers" `Quick (fun () ->
        rejects ~limit:98 (fun () ->
            Experiments.Lab.create (Sim.Engine.create ~seed:1L ()) ~n_peers:99
              ~replicas:1 ()));
  ]

(* --- the harness end to end -------------------------------------------- *)

let pp_failure = Check.Harness.pp_failure ~pp:Check.Schedule.pp ~length:Check.Schedule.length

let run_tests =
  [
    Alcotest.test_case "a hand-written failover schedule passes" `Quick (fun () ->
        let sched =
          { Check.Schedule.seed = 21L; n_peers = 2; n_prefixes = 4;
            steps =
              List.map step
                [ Check.Schedule.Announce { peer = 0; prefix = 0; pref = 200; prepend = 0 };
                  Check.Schedule.Announce { peer = 1; prefix = 0; pref = 100; prepend = 0 };
                  Check.Schedule.Announce { peer = 1; prefix = 1; pref = 100; prepend = 0 };
                  Check.Schedule.Peer_down 0;
                  Check.Schedule.Peer_up 0;
                  Check.Schedule.Withdraw { peer = 1; prefix = 1 } ] }
        in
        Alcotest.(check (list string)) "no violations" [] (Check.Run.execute sched));
    Alcotest.test_case "generated chaos schedules pass" `Quick (fun () ->
        match
          Check.Run.run_matrix ~n_peers:2 ~n_prefixes:6 ~events:15 ~seed:1L
            ~schedules:5 ()
        with
        | None -> ()
        | Some f -> Alcotest.failf "checker found: %a" pp_failure f);
    Alcotest.test_case "a skipped Listing 2 rewrite is caught at quiescence" `Quick
      (fun () ->
        (* The symptom test/mutants/skip-rewrite.patch leaves behind,
           planted by hand: after a clean failover, the group's rule is
           put back on the dead peer. *)
        let module Lab = Experiments.Lab in
        let engine = Sim.Engine.create ~seed:3L () in
        let lab = Lab.create engine ~import_local_pref:false ~n_peers:2 ~replicas:1 () in
        let oracle = Check.Oracle.create () in
        for i = 0 to 1 do
          Check.Oracle.declare_peer oracle ~id:i ~ip:(Lab.ip_peer i) ~mac:(Lab.mac_peer i)
            ~port:(Lab.port_peer i)
        done;
        Lab.start lab;
        let run_s s =
          Sim.Engine.run ~until:(Sim.Time.add (Sim.Engine.now engine) (Sim.Time.of_sec s))
            engine
        in
        run_s 1.0;
        let p = pfx "40.0.0.0/24" in
        List.iter
          (fun (peer, pref) ->
            let a = attrs ~pref (Net.Ipv4.to_string (Lab.ip_peer peer)) in
            Check.Oracle.announce oracle ~peer p a;
            Router.Peer.announce_to_all lab.Lab.peers.(peer)
              { Bgp.Message.withdrawn = []; attrs = Some a; nlri = [ p ] })
          [ (0, 200); (1, 100) ];
        run_s 1.0;
        let controller = lab.Lab.replicas.(0).Lab.controller in
        let subject =
          { Check.Invariants.controller; switch = lab.Lab.switch; oracle;
            probe_port = Lab.port_controller ~n_peers:2 0;
            probe_mac = Lab.mac_controller 0; probe_src = Lab.ip_controller 0 }
        in
        Alcotest.(check (list string)) "backup group installed" []
          (Check.Invariants.at_quiescence subject);
        Check.Oracle.peer_down oracle 0;
        Net.Link.set_up lab.Lab.peer_links.(0) false;
        run_s 1.0;
        Alcotest.(check (list string)) "failover rewrote the rule" []
          (Check.Invariants.at_quiescence subject);
        let b =
          match Supercharger.Backup_group.all (Supercharger.Controller.groups controller) with
          | [ b ] -> b
          | _ -> Alcotest.fail "expected one lingering group"
        in
        Openflow.Flow_table.apply (Openflow.Switch.table lab.Lab.switch)
          (Openflow.Flow_table.flow_mod ~priority:100 Openflow.Flow_table.Modify_strict
             (Openflow.Ofmatch.dl_dst b.Supercharger.Backup_group.vmac)
             [ Openflow.Action.Set_dl_dst (Lab.mac_peer 0);
               Openflow.Action.Output (Lab.port_peer 0) ]);
        let violation =
          Fmt.str "group %a: rule does not point at first alive member 10.0.0.3 (2 actions)"
            Supercharger.Backup_group.pp_binding b
        in
        Alcotest.(check (list string)) "at every instant" [ violation ]
          (Check.Invariants.transient subject);
        Alcotest.(check (list string)) "at quiescence" [ violation ]
          (Check.Invariants.at_quiescence subject));
  ]

let suite =
  [
    ("check.oracle", oracle_tests);
    ("check.schedule", schedule_tests);
    ("check.resolve", resolve_tests);
    ("check.harness", harness_tests);
    ("check.bounds", bounds_tests);
    ("check.run", run_tests);
  ]
