(* Tests for the differential checker itself: the flat-FIB oracle's
   decision process, schedule determinism and shrinking, the
   side-effect-free switch probe, and the end-to-end harness — including
   the guarded Listing 2 mutation it exists to catch. *)

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

(* --- the harness end to end -------------------------------------------- *)

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
        | Some f -> Alcotest.failf "checker found: %a" Check.Run.pp_failure f);
    Alcotest.test_case "the skipped-rewrite mutation is caught and shrunk" `Quick
      (fun () ->
        match Check.Run.run_matrix ~mutate:true ~seed:7L ~schedules:25 () with
        | None -> Alcotest.fail "mutation survived the checker"
        | Some f ->
          Alcotest.(check bool) "violations recorded" true (f.violations <> []);
          Alcotest.(check bool)
            (Fmt.str "counterexample has %d events, want <= 6"
               (Check.Schedule.length f.shrunk))
            true
            (Check.Schedule.length f.shrunk <= 6);
          (* The exact counterexample: any change to the rig or the
             shrinker that moves it shows up here. *)
          Alcotest.(check string) "shrunk schedule"
            "schedule seed=7 peers=3 prefixes=12 events=3\n\
            \   1. announce peer=0 prefix=9 pref=150 prepend=0 (dwell 93ms)\n\
            \   2. announce peer=1 prefix=9 pref=100 prepend=0 (dwell 96ms)\n\
            \   3. peer-down 0 (dwell 94ms)\n"
            (Fmt.str "%a" Check.Schedule.pp f.shrunk);
          Alcotest.(check (list string)) "violation"
            [ "final checkpoint: group [10.0.0.2,10.0.0.3] -> (10.199.0.1, \
               00:ff:00:00:00:01): rule does not point at first alive member \
               10.0.0.3 (2 actions)" ]
            f.violations);
  ]

(* --- reproduce lines ----------------------------------------------------- *)

(* The flags of a failure report's "reproduce: sc_lab <command> ..."
   line, bare switches with an empty value. *)
let reproduce_flags report =
  let line =
    List.find (String.starts_with ~prefix:"reproduce: sc_lab ")
      (String.split_on_char '\n' report)
  in
  let rec flags = function
    | f :: v :: rest when not (String.starts_with ~prefix:"--" v) -> (f, v) :: flags rest
    | f :: rest -> (f, "") :: flags rest
    | [] -> []
  in
  flags (List.filteri (fun i _ -> i >= 3) (String.split_on_char ' ' line))

let reproduce_tests =
  [
    Alcotest.test_case "reproduce lines replay the shrunk counterexample" `Quick
      (fun () ->
        let same pp f g =
          match g with
          | Some g -> Alcotest.(check string) "same shrunk schedule" (Fmt.str "%a" pp f)
                        (Fmt.str "%a" pp g)
          | None -> Alcotest.fail "the reproduce line passes"
        in
        (* Check seed 7 fails on its first schedule, 15 on its eighth. *)
        List.iter
          (fun seed ->
            let f = Option.get (Check.Run.run_matrix ~mutate:true ~seed ~schedules:25 ()) in
            let fl = reproduce_flags (Fmt.str "%a" Check.Run.pp_failure f) in
            let int name = int_of_string (List.assoc name fl) in
            same Check.Schedule.pp f.shrunk
              (Option.map (fun g -> g.Check.Run.shrunk)
                 (Check.Run.run_matrix ~n_peers:(int "--peers") ~n_prefixes:(int "--prefixes")
                    ~events:(int "--events") ~chaos:(not (List.mem_assoc "--no-chaos" fl))
                    ~mutate:(List.mem_assoc "--mutate" fl)
                    ~seed:(Int64.of_string (List.assoc "--seed" fl))
                    ~schedules:(int "--schedules") ())))
          [ 7L; 15L ];
        (* Ribscale seed 23 fails on its second schedule, whose own seed
           (24) would name a different table. *)
        let f =
          Option.get
            (Check.Ribscale.run_matrix ~n_peers:8 ~length:2 ~entries:300 ~mutate:true
               ~seed:23L ~schedules:6 ())
        in
        Alcotest.(check int64) "second schedule" 24L f.schedule.seed;
        let fl = reproduce_flags (Fmt.str "%a" Check.Ribscale.pp_failure f) in
        let int name = int_of_string (List.assoc name fl) in
        same Check.Ribscale.pp f.shrunk
          (Option.map (fun g -> g.Check.Ribscale.shrunk)
             (Check.Ribscale.run_matrix ~n_peers:(int "--peers") ~length:(int "--events")
                ~entries:(int "--entries") ~mutate:(List.mem_assoc "--mutate" fl)
                ~seed:(Int64.of_string (List.assoc "--seed" fl))
                ~schedules:(int "--schedules") ())));
  ]

let suite =
  [
    ("check.oracle", oracle_tests);
    ("check.schedule", schedule_tests);
    ("check.resolve", resolve_tests);
    ("check.run", run_tests);
    ("check.reproduce", reproduce_tests);
  ]
