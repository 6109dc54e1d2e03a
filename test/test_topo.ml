(* Tests for the multi-router topology layer: spec validation and the
   ring builder, fabric bring-up and failover over one shared
   controller, the multi-node differential checker on the acceptance
   seeds (schedules mixing extern/link faults, correlated srlg cuts and
   controller partitions), and a partial-deployment sweep smoke. *)

let prefix i = Net.Prefix.make (Net.Ipv4.of_octets 203 0 i 0) 24
let node name = { Topo.Spec.name; supercharged = false }
let link ?srlg a b cost = { Topo.Spec.ends = (a, b); cost; srlg }
let extern at asn pref = { Topo.Spec.at; asn; pref }

let rejects f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let spec_tests =
  [
    Alcotest.test_case "validation rejects bad descriptions" `Quick (fun () ->
        let nodes = Array.init 3 (fun i -> node (Fmt.str "r%d" i)) in
        let check name bad =
          Alcotest.(check bool) name true (rejects bad)
        in
        check "endpoint out of range" (fun () ->
            Topo.Spec.make ~nodes ~links:[| link 0 3 10 |] ~externs:[||]);
        check "self link" (fun () ->
            Topo.Spec.make ~nodes ~links:[| link 1 1 10 |] ~externs:[||]);
        check "duplicate link (reversed)" (fun () ->
            Topo.Spec.make ~nodes
              ~links:[| link 0 1 10; link 1 0 5 |]
              ~externs:[||]);
        check "non-positive cost" (fun () ->
            Topo.Spec.make ~nodes ~links:[| link 0 1 0 |] ~externs:[||]);
        check "extern off the map" (fun () ->
            Topo.Spec.make ~nodes ~links:[| link 0 1 10 |]
              ~externs:[| extern 9 64600 100 |]);
        check "no routers" (fun () ->
            Topo.Spec.make ~nodes:[||] ~links:[||] ~externs:[||]));
    Alcotest.test_case "ring builder shape" `Quick (fun () ->
        let s =
          Topo.Spec.ring ~routers:8
            ~externs:[ (0, 200); (4, 150); (2, 100) ]
            ~supercharged:[ 0; 3 ] ()
        in
        Alcotest.(check int) "routers" 8 (Topo.Spec.n_routers s);
        Alcotest.(check int) "externs" 3 (Topo.Spec.n_externs s);
        Alcotest.(check int) "8 ring links + 4 chords" 12
          (Array.length s.Topo.Spec.links);
        Alcotest.(check int) "srlg 0: the two conduit links at router 0" 2
          (List.length (Topo.Spec.srlg_members s 0));
        List.iter
          (fun l ->
            let a, b = s.Topo.Spec.links.(l).Topo.Spec.ends in
            Alcotest.(check bool) "conduit touches router 0" true (a = 0 || b = 0))
          (Topo.Spec.srlg_members s 0);
        Alcotest.(check int) "srlg 1: the chords" 4
          (List.length (Topo.Spec.srlg_members s 1));
        Alcotest.(check bool) "ring neighbors adjacent" true
          (Option.is_some (Topo.Spec.link_between s 0 1));
        Alcotest.(check bool) "antipodes chorded" true
          (Option.is_some (Topo.Spec.link_between s 0 4));
        Alcotest.(check bool) "no skip link" true
          (Option.is_none (Topo.Spec.link_between s 0 2));
        Alcotest.(check bool) "supercharged as listed" true
          (Topo.Spec.supercharged_indices s = [ 0; 3 ]);
        let s' = Topo.Spec.with_supercharged s [ 1; 5 ] in
        Alcotest.(check bool) "re-deployed" true
          (Topo.Spec.supercharged_indices s' = [ 1; 5 ]));
  ]

(* An 8-router ring with the quickstart's externs, settled with four
   prefixes announced by all three peers. *)
let build_fabric ?(seed = 42L) ?(supercharged = [ 0; 3 ]) () =
  let engine = Sim.Engine.create ~seed () in
  let spec =
    Topo.Spec.ring ~routers:8
      ~externs:[ (0, 200); (4, 150); (2, 100) ]
      ~supercharged ()
  in
  let fabric = Topo.Fabric.build engine spec in
  Topo.Fabric.start fabric;
  let prefixes = List.init 4 prefix in
  for k = 0 to Topo.Spec.n_externs spec - 1 do
    Topo.Fabric.announce_extern fabric ~extern:k prefixes
  done;
  Alcotest.(check bool) "bring-up settles" true (Topo.Fabric.settle fabric ());
  (fabric, prefixes)

let every_ingress fabric p expected =
  for r = 0 to Topo.Spec.n_routers (Topo.Fabric.spec fabric) - 1 do
    Alcotest.(check bool)
      (Fmt.str "ingress %d walk" r)
      true
      (Topo.Fabric.outcome_equal expected
         (Topo.Fabric.outcome fabric ~ingress:r p))
  done

let fabric_tests =
  [
    Alcotest.test_case "bring-up: everyone exits via the best egress" `Quick
      (fun () ->
        let fabric, prefixes = build_fabric () in
        let p0 = List.hd prefixes in
        for r = 0 to 7 do
          Alcotest.(check (option int))
            (Fmt.str "router %d choice" r)
            (Some 0)
            (Topo.Router.choice (Topo.Fabric.router fabric r) p0)
        done;
        every_ingress fabric p0 (Topo.Fabric.Delivered 0));
    Alcotest.test_case "best-egress death fails every router over" `Quick
      (fun () ->
        let fabric, prefixes = build_fabric () in
        let p0 = List.hd prefixes in
        Topo.Fabric.fail_extern fabric ~extern:0;
        Alcotest.(check bool) "re-settles" true (Topo.Fabric.settle fabric ());
        for r = 0 to 7 do
          Alcotest.(check (option int))
            (Fmt.str "router %d re-chose" r)
            (Some 1)
            (Topo.Router.choice (Topo.Fabric.router fabric r) p0)
        done;
        every_ingress fabric p0 (Topo.Fabric.Delivered 1);
        Alcotest.(check bool) "controller fast-repointed the supercharged" true
          (Topo.Control.fast_repoints (Topo.Fabric.control fabric) > 0);
        Topo.Fabric.recover_extern fabric ~extern:0;
        Alcotest.(check bool) "recovery settles" true
          (Topo.Fabric.settle fabric ());
        every_ingress fabric p0 (Topo.Fabric.Delivered 0));
    Alcotest.test_case "correlated conduit cut reroutes over the chords" `Quick
      (fun () ->
        let fabric, prefixes = build_fabric () in
        let p0 = List.hd prefixes in
        Topo.Fabric.fail_srlg fabric ~srlg:0;
        Alcotest.(check bool) "re-settles" true (Topo.Fabric.settle fabric ());
        (* Router 0 lost both ring links but keeps its chord: the best
           egress (hanging off router 0) must stay reachable from every
           ingress. *)
        every_ingress fabric p0 (Topo.Fabric.Delivered 0);
        Topo.Fabric.recover_srlg fabric ~srlg:0;
        Alcotest.(check bool) "recovery settles" true
          (Topo.Fabric.settle fabric ()));
    Alcotest.test_case "partition overlapping a failure heals consistently"
      `Quick (fun () ->
        let fabric, prefixes = build_fabric () in
        let p0 = List.hd prefixes in
        let engine = Topo.Fabric.engine fabric in
        let now = Sim.Engine.now engine in
        (* Black out router 0's control plane, then kill its extern
           inside the window: the repair is gated on the heal resync. *)
        Topo.Fabric.partition fabric ~routers:[ 0 ] ~from:now
          ~until:(Sim.Time.add now (Sim.Time.of_ms 200));
        ignore
          (Sim.Engine.schedule_after engine (Sim.Time.of_ms 50) (fun () ->
               Topo.Fabric.fail_extern fabric ~extern:0));
        Topo.Fabric.run_until fabric (Sim.Time.add now (Sim.Time.of_ms 260));
        Alcotest.(check bool) "heals and settles" true
          (Topo.Fabric.settle fabric ());
        for r = 0 to 7 do
          Alcotest.(check (option int))
            (Fmt.str "router %d post-heal choice" r)
            (Some 1)
            (Topo.Router.choice (Topo.Fabric.router fabric r) p0)
        done;
        every_ingress fabric p0 (Topo.Fabric.Delivered 1));
  ]

let checker_tests =
  [
    Alcotest.test_case "deterministic srlg + partition schedule passes" `Quick
      (fun () ->
        (* A hand-built schedule covering the whole fault vocabulary:
           correlated conduit cut, controller partition overlapping an
           egress failure, a lone link flap — all against the oracle. *)
        let step ev dwell_ms = { Check.Topo_run.ev; dwell_ms } in
        let sched =
          {
            Check.Topo_run.seed = 5L;
            routers = 8;
            supercharged = [ 0; 2; 3 ];
            n_prefixes = 5;
            steps =
              [
                step (Check.Topo_run.Srlg_fail 0) 60;
                step
                  (Check.Topo_run.Partition { routers = [ 0; 1 ]; span_ms = 80 })
                  40;
                step (Check.Topo_run.Extern_fail 0) 50;
                step (Check.Topo_run.Link_down 2) 45;
                step (Check.Topo_run.Srlg_recover 0) 60;
                step (Check.Topo_run.Extern_recover 0) 40;
                step (Check.Topo_run.Link_up 2) 50;
              ];
          }
        in
        Alcotest.(check (list string)) "no violations" []
          (Check.Topo_run.execute sched));
    Alcotest.test_case "generated schedules pass on the acceptance seeds"
      `Quick (fun () ->
        match
          Check.Topo_run.run_matrix ~seeds:[ 101L; 102L; 103L ] ()
        with
        | None -> ()
        | Some f ->
          Alcotest.failf "%a"
            (Check.Harness.pp_failure ~pp:Check.Topo_run.pp ~length:Check.Topo_run.length)
            f);
  ]

let deployment_tests =
  [
    Alcotest.test_case "sweep smoke: full deployment beats none" `Quick
      (fun () ->
        let rows =
          Experiments.Deployment.run ~routers:8 ~n_prefixes:40 ~probes:4
            ~coverage:[ 0; 8 ] ~seeds:[ 11L ]
            ~scenarios:[ Experiments.Deployment.Extern_fail ]
            ~window:(Sim.Time.of_ms 900) ()
        in
        match rows with
        | [ row ] -> (
          Alcotest.(check int) "two coverage points" 2 (List.length row.points);
          match row.Experiments.Deployment.points with
          | [ plain; full ] ->
            Alcotest.(check int) "plain point" 0 plain.n_supercharged;
            Alcotest.(check int) "full point" 8 full.n_supercharged;
            Alcotest.(check bool) "full no worse than plain" true
              (full.mean_outage_ms <= plain.mean_outage_ms);
            (match full.win_pct with
            | Some w ->
              Alcotest.(check bool) "full realises ~all of the win" true
                (w > 99.0)
            | None -> () (* indistinguishable run: nothing to win *));
            (match Experiments.Deployment.to_json rows with
            | Obs.Json.List cells ->
              Alcotest.(check int) "one JSON cell per point" 2
                (List.length cells)
            | _ -> Alcotest.fail "expected a JSON list");
            let csv = Experiments.Deployment.to_csv rows in
            Alcotest.(check int) "csv: header + points" 3
              (List.length
                 (List.filter
                    (fun l -> String.trim l <> "")
                    (String.split_on_char '\n' csv)))
          | _ -> Alcotest.fail "expected exactly two points")
        | _ -> Alcotest.fail "expected exactly one row");
    Alcotest.test_case "coverage outside 0..routers is rejected" `Quick (fun () ->
        List.iter
          (fun k ->
            Alcotest.check_raises (Fmt.str "coverage %d" k)
              (Invalid_argument (Fmt.str "Deployment.run: coverage %d outside 0..8" k))
              (fun () ->
                ignore
                  (Experiments.Deployment.run ~routers:8 ~n_prefixes:40 ~probes:4
                     ~coverage:[ 2; k ] ~seeds:[ 11L ] ())))
          [ -1; 9; 99 ]);
    Alcotest.test_case "coverage bounds are accepted, sorted and deduplicated" `Quick
      (fun () ->
        match
          Experiments.Deployment.run ~routers:8 ~n_prefixes:40 ~probes:4
            ~coverage:[ 8; 0; 8 ] ~seeds:[ 11L ]
            ~scenarios:[ Experiments.Deployment.Extern_fail ]
            ~window:(Sim.Time.of_ms 900) ()
        with
        | [ row ] ->
          Alcotest.(check (list int)) "one point per distinct level, ascending" [ 0; 8 ]
            (List.map
               (fun (p : Experiments.Deployment.point) -> p.n_supercharged)
               row.Experiments.Deployment.points)
        | _ -> Alcotest.fail "expected exactly one row");
  ]

let suite =
  [
    ("topo.spec", spec_tests);
    ("topo.fabric", fabric_tests);
    ("topo.checker", checker_tests);
    ("topo.deployment", deployment_tests);
  ]
