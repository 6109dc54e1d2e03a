(* Integration tests: statistics, the full Fig. 4 lab in both modes,
   dense/event-driven equivalence, and controller replication. *)

let stats_tests =
  [
    Alcotest.test_case "percentiles of a known distribution" `Quick (fun () ->
        let xs = [|1.0; 2.0; 3.0; 4.0; 5.0|] in
        Alcotest.(check (float 1e-9)) "p0" 1.0 (Experiments.Stats.percentile xs 0.0);
        Alcotest.(check (float 1e-9)) "p50" 3.0 (Experiments.Stats.percentile xs 50.0);
        Alcotest.(check (float 1e-9)) "p100" 5.0 (Experiments.Stats.percentile xs 100.0);
        Alcotest.(check (float 1e-9)) "p25" 2.0 (Experiments.Stats.percentile xs 25.0);
        Alcotest.(check (float 1e-9)) "p10 interpolates" 1.4
          (Experiments.Stats.percentile xs 10.0));
    Alcotest.test_case "does not sort the input in place" `Quick (fun () ->
        let xs = [|3.0; 1.0; 2.0|] in
        ignore (Experiments.Stats.percentile xs 50.0);
        Alcotest.(check (array (float 0.0))) "untouched" [|3.0; 1.0; 2.0|] xs);
    Alcotest.test_case "summary fields are consistent" `Quick (fun () ->
        let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
        let s = Experiments.Stats.summarize xs in
        Alcotest.(check int) "n" 100 s.Experiments.Stats.n;
        Alcotest.(check (float 1e-9)) "min" 1.0 s.Experiments.Stats.min;
        Alcotest.(check (float 1e-9)) "max" 100.0 s.Experiments.Stats.max;
        Alcotest.(check (float 1e-9)) "mean" 50.5 s.Experiments.Stats.mean;
        Alcotest.(check bool) "ordered" true
          (s.Experiments.Stats.min <= s.Experiments.Stats.p5
          && s.Experiments.Stats.p5 <= s.Experiments.Stats.q1
          && s.Experiments.Stats.q1 <= s.Experiments.Stats.median
          && s.Experiments.Stats.median <= s.Experiments.Stats.q3
          && s.Experiments.Stats.q3 <= s.Experiments.Stats.p95
          && s.Experiments.Stats.p95 <= s.Experiments.Stats.max));
    Alcotest.test_case "empty input rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Experiments.Stats.summarize [||]);
             false
           with Invalid_argument _ -> true));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"percentile stays within [min,max]" ~count:200
         QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_bound_exclusive 1000.0)) (0 -- 100))
         (fun (xs, p) ->
           let arr = Array.of_list xs in
           let v = Experiments.Stats.percentile arr (float_of_int p) in
           let mn = Array.fold_left min arr.(0) arr in
           let mx = Array.fold_left max arr.(0) arr in
           v >= mn -. 1e-9 && v <= mx +. 1e-9));
  ]

(* Small-scale lab runs keep the suite fast; the invariants do not
   depend on table size. *)
let small_params ?(mode = Experiments.Topology.Plain) ?(traffic = Experiments.Topology.Event_driven)
    ?(n_prefixes = 60) ?(flows = 8) ?(seed = 42L) () =
  let p = Experiments.Topology.default_params ~mode ~n_prefixes () in
  {
    p with
    Experiments.Topology.monitored_flows = flows;
    traffic;
    seed;
    (* A coarser grid keeps dense mode cheap. *)
    grid = Sim.Time.of_us 500;
  }

let convergence_list result =
  Array.to_list (Experiments.Topology.convergence_seconds result)

let lab_tests =
  [
    Alcotest.test_case "plain mode: all flows recover, linear tail" `Slow (fun () ->
        let result = Experiments.Topology.run (small_params ()) in
        let samples = convergence_list result in
        Alcotest.(check int) "all flows" 8 (List.length samples);
        List.iter
          (fun c ->
            (* Detection (>=80ms) + batch start (280ms) at least; and
               bounded by detection + batch + n x per-entry + slack. *)
            Alcotest.(check bool) (Fmt.str "lower bound (%.3f)" c) true (c > 0.30);
            Alcotest.(check bool) (Fmt.str "upper bound (%.3f)" c) true (c < 0.60))
          samples;
        Alcotest.(check int) "no backup groups in plain mode" 0
          result.Experiments.Topology.backup_groups);
    Alcotest.test_case "supercharged mode: constant fast convergence" `Slow (fun () ->
        let result =
          Experiments.Topology.run
            (small_params ~mode:(Experiments.Topology.Supercharged { replicas = 1 }) ())
        in
        let samples = convergence_list result in
        List.iter
          (fun c ->
            Alcotest.(check bool) (Fmt.str "fast (%.3f)" c) true (c < 0.16);
            Alcotest.(check bool) (Fmt.str "not instant (%.3f)" c) true (c > 0.05))
          samples;
        Alcotest.(check int) "single backup group" 1
          result.Experiments.Topology.backup_groups;
        (* Listing 2 rewrote exactly one rule at failover: total rule
           installs = 1 initial + 1 failover. *)
        Alcotest.(check int) "two flow mods total" 2
          result.Experiments.Topology.flow_mods_at_failover);
    Alcotest.test_case "supercharged beats plain at every size tested" `Slow
      (fun () ->
        let plain = Experiments.Topology.run (small_params ~n_prefixes:120 ()) in
        let super =
          Experiments.Topology.run
            (small_params ~mode:(Experiments.Topology.Supercharged { replicas = 1 })
               ~n_prefixes:120 ())
        in
        let max_of r = List.fold_left max 0.0 (convergence_list r) in
        Alcotest.(check bool) "super max < plain min" true
          (max_of super < List.fold_left min infinity (convergence_list plain)));
    Alcotest.test_case "supercharged convergence is size-independent" `Slow (fun () ->
        let at n =
          let r =
            Experiments.Topology.run
              (small_params ~mode:(Experiments.Topology.Supercharged { replicas = 1 })
                 ~n_prefixes:n ())
          in
          List.fold_left max 0.0 (convergence_list r)
        in
        let small = at 30 and large = at 300 in
        Alcotest.(check bool)
          (Fmt.str "within 15%% (%.3f vs %.3f)" small large)
          true
          (Float.abs (small -. large) /. large < 0.15));
    Alcotest.test_case "plain convergence grows with the table" `Slow (fun () ->
        let at n =
          let r = Experiments.Topology.run (small_params ~n_prefixes:n ()) in
          List.fold_left max 0.0 (convergence_list r)
        in
        let small = at 50 and large = at 400 in
        Alcotest.(check bool) (Fmt.str "monotone (%.3f < %.3f)" small large) true
          (small < large));
    Alcotest.test_case "dense and event-driven traffic agree" `Slow (fun () ->
        let run traffic =
          Experiments.Topology.run (small_params ~traffic ~n_prefixes:40 ~flows:5 ())
        in
        let dense = run Experiments.Topology.Dense in
        let event = run Experiments.Topology.Event_driven in
        List.iter2
          (fun d e ->
            (* Within one grid slot plus the path delay. *)
            Alcotest.(check bool) (Fmt.str "close (%.4f vs %.4f)" d e) true
              (Float.abs (d -. e) < 0.003))
          (convergence_list dense) (convergence_list event));
    Alcotest.test_case "two replicas compute identical state" `Slow (fun () ->
        let result =
          Experiments.Topology.run
            (small_params ~mode:(Experiments.Topology.Supercharged { replicas = 2 }) ())
        in
        (match result.Experiments.Topology.replica_digests with
        | [a; b] ->
          Alcotest.(check bool) "digests non-empty" true (String.length a > 0);
          Alcotest.(check string) "identical" a b
        | _ -> Alcotest.fail "expected two digests");
        (* Convergence unharmed by replication. *)
        List.iter
          (fun c -> Alcotest.(check bool) "fast" true (c < 0.16))
          (convergence_list result));
    Alcotest.test_case "backup failure leaves traffic unaffected" `Slow (fun () ->
        List.iter
          (fun mode ->
            let params = small_params ~mode ~n_prefixes:60 () in
            let params =
              { params with Experiments.Topology.failure = Experiments.Topology.Fail_backup }
            in
            let result = Experiments.Topology.run params in
            Array.iter
              (fun gaps ->
                Alcotest.(check int)
                  (Fmt.str "no outage (%a)" Experiments.Topology.pp_mode mode)
                  0 (List.length gaps))
              result.Experiments.Topology.outages)
          [Experiments.Topology.Plain; Experiments.Topology.Supercharged { replicas = 1 }]);
    Alcotest.test_case "five peers: still one fast failover" `Slow (fun () ->
        let params =
          small_params ~mode:(Experiments.Topology.Supercharged { replicas = 1 })
            ~n_prefixes:80 ()
        in
        let params = { params with Experiments.Topology.n_peers = 5 } in
        let result = Experiments.Topology.run params in
        List.iter
          (fun c -> Alcotest.(check bool) (Fmt.str "fast (%.3f)" c) true (c < 0.16))
          (convergence_list result);
        (* (p0, p1) before the failure, plus (p1, p2) once the slow path
           reconverges afterwards - never anything like n x (n-1). *)
        Alcotest.(check int) "two groups" 2 result.Experiments.Topology.backup_groups);
    Alcotest.test_case "double failure: group size 3 keeps both failovers fast" `Slow
      (fun () ->
        let run k =
          let params =
            small_params ~mode:(Experiments.Topology.Supercharged { replicas = 1 })
              ~n_prefixes:300 ()
          in
          let params =
            {
              params with
              Experiments.Topology.n_peers = 3;
              group_size = k;
              failure = Experiments.Topology.Fail_two (Sim.Time.of_ms 200);
            }
          in
          Experiments.Topology.run params
        in
        let second_worst result =
          Array.fold_left
            (fun acc gaps ->
              match gaps with [_; g] -> max acc (Sim.Time.to_sec g) | _ -> acc)
            0.0 result.Experiments.Topology.outages
        in
        let r2 = run 2 and r3 = run 3 in
        Array.iter
          (fun gaps -> Alcotest.(check int) "two outages" 2 (List.length gaps))
          r3.Experiments.Topology.outages;
        (* With groups of three the second failover is a single rule
           rewrite; with pairs it waits for the router's slow path. *)
        Alcotest.(check bool)
          (Fmt.str "k=3 fast (%.3f)" (second_worst r3))
          true
          (second_worst r3 < 0.20);
        Alcotest.(check bool)
          (Fmt.str "k=2 slow-path (%.3f > %.3f)" (second_worst r2) (second_worst r3))
          true
          (second_worst r2 > second_worst r3 +. 0.05));
    Alcotest.test_case "runs are bit-for-bit deterministic in the seed" `Slow
      (fun () ->
        (* The replication argument (S3) rests on determinism; assert it
           end-to-end: two separate engines, same params, identical
           measurements to the nanosecond. *)
        let params =
          small_params ~mode:(Experiments.Topology.Supercharged { replicas = 1 }) ()
        in
        let a = Experiments.Topology.run params in
        let b = Experiments.Topology.run params in
        Alcotest.(check (list (option int64))) "same convergence (ns)"
          (Array.to_list
             (Array.map (Option.map Sim.Time.to_ns) a.Experiments.Topology.convergence))
          (Array.to_list
             (Array.map (Option.map Sim.Time.to_ns) b.Experiments.Topology.convergence));
        Alcotest.(check int) "same events" a.Experiments.Topology.events
          b.Experiments.Topology.events;
        Alcotest.(check int) "same probes" a.Experiments.Topology.probes
          b.Experiments.Topology.probes;
        (* And a different seed gives a different detection phase. *)
        let c =
          Experiments.Topology.run { params with Experiments.Topology.seed = 43L }
        in
        Alcotest.(check bool) "different seed differs" true
          (a.Experiments.Topology.convergence <> c.Experiments.Topology.convergence));
    Alcotest.test_case "the lab's pcap capture is a readable trace" `Slow (fun () ->
        let path = Filename.temp_file "sc_lab" ".pcap" in
        let params = small_params ~n_prefixes:30 ~flows:4 () in
        let params = { params with Experiments.Topology.pcap = Some path } in
        ignore (Experiments.Topology.run params);
        (match Net.Pcap.read_file path with
        | Ok records ->
          Alcotest.(check bool)
            (Fmt.str "captured %d frames" (List.length records))
            true
            (List.length records > 100);
          (* Timestamps are monotone non-decreasing, as captured. *)
          let rec monotone = function
            | (t1, _) :: ((t2, _) :: _ as rest) ->
              Sim.Time.(t1 <= t2) && monotone rest
            | _ -> true
          in
          Alcotest.(check bool) "monotone timestamps" true (monotone records)
        | Error e -> Alcotest.failf "unreadable capture: %a" Net.Wire.pp_error e);
        Sys.remove path);
    Alcotest.test_case "full wire encoding changes nothing" `Slow (fun () ->
        (* The same supercharged run with every BGP byte going through
           the RFC 4271 codec in 512-byte TCP-like fragments must
           produce identical measurements. *)
        let base = small_params ~mode:(Experiments.Topology.Supercharged { replicas = 1 }) () in
        let plain_run = Experiments.Topology.run base in
        let wire_run =
          Experiments.Topology.run { base with Experiments.Topology.bgp_wire = true }
        in
        List.iter2
          (fun a b ->
            Alcotest.(check (float 0.002)) "same convergence" a b)
          (convergence_list plain_run) (convergence_list wire_run);
        Alcotest.(check int) "same groups"
          plain_run.Experiments.Topology.backup_groups
          wire_run.Experiments.Topology.backup_groups);
    Alcotest.test_case "probe volume stays tiny in event-driven mode" `Slow (fun () ->
        let result = Experiments.Topology.run (small_params ~n_prefixes:200 ()) in
        (* Brute force would need millions of packets; the monitor needs
           a few thousand at most. *)
        Alcotest.(check bool)
          (Fmt.str "probes=%d" result.Experiments.Topology.probes)
          true
          (result.Experiments.Topology.probes < 20_000));
  ]

(* Values recorded from [Topology.run] at 2,000 prefixes, seed 42. The
   determinism test above compares two runs of one build; these pin the
   behaviour across builds, so a change that shifts event order, FIB
   timing or convergence fails here. *)
let golden_tests =
  let check_run mode ~events ~fib_writes ~convergence_ns =
    let r =
      Experiments.Topology.run
        (Experiments.Topology.default_params ~mode ~n_prefixes:2000 ())
    in
    Alcotest.(check int) "events" events r.Experiments.Topology.events;
    Alcotest.(check int) "fib_writes" fib_writes r.Experiments.Topology.fib_writes;
    Alcotest.(check (list (option int64)))
      "convergence (ns)"
      (List.map (fun ns -> Some (Int64.of_int ns)) convergence_ns)
      (Array.to_list
         (Array.map (Option.map Sim.Time.to_ns) r.Experiments.Topology.convergence))
  in
  [
    Alcotest.test_case "plain lab at 2,000 prefixes, seed 42" `Slow (fun () ->
        check_run Experiments.Topology.Plain ~events:37206 ~fib_writes:4000
          ~convergence_ns:
            [
            392_560_000; 954_310_000; 942_760_000; 784_840_000; 503_020_000; 895_300_000;
            567_350_000; 640_150_000; 630_000_000; 482_510_000; 504_700_000; 827_540_000;
            858_480_000; 526_330_000; 442_890_000; 731_150_000; 872_270_000; 950_950_000;
            591_780_000; 501_900_000; 619_360_000; 466_200_000; 605_570_000; 679_210_000;
            930_720_000; 683_410_000; 657_020_000; 753_410_000; 946_120_000; 465_080_000;
            886_830_000; 938_280_000; 952_070_000; 719_390_000; 802_550_000; 761_530_000;
            594_020_000; 399_630_000; 952_910_000; 923_930_000; 824_740_000; 893_900_000;
            917_210_000; 567_910_000; 907_340_000; 887_110_000; 923_090_000; 953_470_000;
            478_590_000; 576_100_000; 779_520_000; 943_600_000; 515_620_000; 434_140_000;
            529_130_000; 883_470_000; 692_090_000; 405_510_000; 791_910_000; 516_250_000;
            543_760_000; 552_720_000; 859_880_000; 577_500_000; 931_280_000; 423_220_000;
            771_960_000; 576_660_000; 459_200_000; 551_880_000; 589_820_000; 578_900_000;
            572_390_000; 399_350_000; 701_120_000; 392_840_000; 586_460_000; 651_630_000;
            828_660_000; 838_530_000; 884_590_000; 587_580_000; 467_600_000; 572_950_000;
            411_670_000; 714_630_000; 493_430_000; 545_720_000; 396_200_000; 721_630_000;
            826_980_000; 551_600_000; 581_140_000; 510_300_000; 630_560_000; 680_890_000;
            743_540_000; 507_780_000; 722_470_000; 456_610_000;
            ]);
    Alcotest.test_case "supercharged lab at 2,000 prefixes, seed 42" `Slow (fun () ->
        check_run
          (Experiments.Topology.Supercharged { replicas = 1 })
          ~events:45160 ~fib_writes:5799
          ~convergence_ns:(List.init 100 (fun _ -> 116_130_000)));
  ]

let micro_tests =
  [
    Alcotest.test_case "micro benchmark processes the double feed" `Slow (fun () ->
        let r = Experiments.Micro.run ~count:2_000 () in
        Alcotest.(check int) "updates" 4_000 r.Experiments.Micro.updates;
        Alcotest.(check int) "one backup group" 1 r.Experiments.Micro.backup_groups;
        Alcotest.(check bool) "emissions cover the table" true
          (r.Experiments.Micro.emissions >= 2_000);
        Alcotest.(check bool) "p99 sane" true
          (r.Experiments.Micro.p99_us >= 0.0
          && r.Experiments.Micro.p99_us <= r.Experiments.Micro.max_us));
  ]

let fig5_tests =
  [
    Alcotest.test_case "tiny sweep has both modes per size" `Slow (fun () ->
        let rows =
          Experiments.Fig5.run ~sizes:[40; 80] ~repetitions:1 ~monitored_flows:5 ()
        in
        Alcotest.(check int) "four rows" 4 (List.length rows);
        List.iter
          (fun (row : Experiments.Fig5.row) ->
            Alcotest.(check int) "no losses" 0 row.unrecovered;
            Alcotest.(check bool) "positive" true (row.summary.Experiments.Stats.max > 0.0))
          rows;
        (* Supercharged max below plain min at each size. *)
        List.iter
          (fun size ->
            let find mode =
              List.find
                (fun (r : Experiments.Fig5.row) -> r.n_prefixes = size && r.mode = mode)
                rows
            in
            let plain = find Experiments.Topology.Plain in
            let super = find (Experiments.Topology.Supercharged { replicas = 1 }) in
            Alcotest.(check bool) "ordering" true
              (super.summary.Experiments.Stats.max < plain.summary.Experiments.Stats.min))
          [40; 80]);
  ]

let ablation_tests =
  [
    Alcotest.test_case "ablations A1-A4 keep their shape" `Slow (fun () ->
        let module A = Experiments.Ablations in
        let maxima points = List.map (fun (p : A.point) -> p.max_s) points in
        let rec pairwise ok = function
          | a :: (b :: _ as rest) -> ok a b && pairwise ok rest
          | [_] | [] -> true
        in
        (* A1: detection dominates, so a longer BFD interval is slower. *)
        Alcotest.(check bool) "A1: max convergence rises with the BFD interval" true
          (pairwise ( < ) (maxima (A.bfd_sweep ~n_prefixes:500 ())));
        (* A2: a slower switch never makes the failover faster. *)
        Alcotest.(check bool) "A2: max convergence does not fall with flow-mod latency"
          true
          (pairwise ( <= ) (maxima (A.flow_mod_sweep ~n_prefixes:500 ())));
        let r = A.replicas ~n_prefixes:500 () in
        Alcotest.(check bool) "A3: identical groups" true r.A.identical_groups;
        Alcotest.(check bool) "A3: identical rules" true r.A.identical_rules;
        let d = A.double_failure ~n_prefixes:500 () in
        Alcotest.(check bool)
          (Fmt.str "A4: triples' second outage %.3fs below pairs' %.3fs"
             d.A.second_outage_triples_s d.A.second_outage_pairs_s)
          true
          (d.A.second_outage_triples_s < d.A.second_outage_pairs_s));
  ]

let suite =
  [
    ("experiments.stats", stats_tests);
    ("experiments.lab", lab_tests);
    ("experiments.golden", golden_tests);
    ("experiments.micro", micro_tests);
    ("experiments.fig5", fig5_tests);
    ("experiments.ablations", ablation_tests);
  ]
