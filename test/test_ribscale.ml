(* The internet-scale RIB work, tested from three sides: a qcheck
   property driving the sharded/incremental Bgp.Rib against the naive
   Check.Oracle across every prefix length (including /0, /32 and
   covering chains); complexity regressions pinning the peer-down path
   to the failed peer's own routes and backup-group churn to the
   peer-pair bound; and unit tests for the Check.Ribscale differential
   harness itself, its planted-bug canary included. *)

let peer_ip peer = Net.Ipv4.of_octets 10 0 0 (peer + 2)

let attrs ~lp peer =
  Bgp.Attributes.make ~local_pref:lp
    ~as_path:[Bgp.Attributes.Seq [Bgp.Asn.of_int (65000 + peer)]]
    ~next_hop:(peer_ip peer) ()

let route ~peer a = Bgp.Route.make ~peer_id:peer ~peer_router_id:(peer_ip peer) a

(* --- property: Rib vs Oracle at every prefix length ------------------- *)

(* The prefix universe: one nested chain 10.0.0.0/0 .. /32 — every mask
   length, every shard, each covering all longer ones — plus disjoint
   /24s so inter-shard independence is exercised too. *)
let universe =
  Array.append
    (Array.init 33 (fun len -> Net.Prefix.make (Net.Ipv4.of_octets 10 0 0 0) len))
    (Array.init 3 (fun i -> Net.Prefix.make (Net.Ipv4.of_octets 172 16 i 0) 24))

let n_peers = 4

type op =
  | Op_announce of int * int * int  (* peer, prefix index, local pref *)
  | Op_withdraw of int * int
  | Op_peer_down of int
  | Op_peer_up of int

let gen_op =
  QCheck.map
    (fun (kind, peer, prefix, lp) ->
      if kind < 5 then Op_announce (peer, prefix, 100 + (10 * lp))
      else if kind < 8 then Op_withdraw (peer, prefix)
      else if kind < 9 then Op_peer_down peer
      else Op_peer_up peer)
    QCheck.(
      quad (0 -- 9) (0 -- (n_peers - 1)) (0 -- (Array.length universe - 1)) (0 -- 3))

let property_tests =
  [
    Test_seed.to_alcotest
      (QCheck.Test.make
         ~name:"sharded rib ranks like the oracle at every prefix length" ~count:300
         QCheck.(small_list gen_op)
         (fun ops ->
           let rib = Bgp.Rib.create () in
           let oracle = Check.Oracle.create () in
           for i = 0 to n_peers - 1 do
             Check.Oracle.declare_peer oracle ~id:i ~ip:(peer_ip i)
               ~mac:(Net.Mac.of_int64 (Int64.of_int (0xAA_0000_0000 + i)))
               ~port:(1 + i)
           done;
           (* A down session is silent: its announce/withdraw ops are
              dropped on both sides, exactly as the Ribscale interpreter
              treats them. *)
           let down = Array.make n_peers false in
           let apply = function
             | Op_announce (peer, idx, lp) ->
               if not down.(peer) then begin
                 let p = universe.(idx) in
                 let a = attrs ~lp peer in
                 Check.Oracle.announce oracle ~peer p a;
                 ignore (Bgp.Rib.announce rib p (route ~peer a))
               end
             | Op_withdraw (peer, idx) ->
               if not down.(peer) then begin
                 let p = universe.(idx) in
                 Check.Oracle.withdraw oracle ~peer p;
                 ignore (Bgp.Rib.withdraw rib p ~peer_id:peer)
               end
             | Op_peer_down peer ->
               down.(peer) <- true;
               Check.Oracle.peer_down oracle peer;
               ignore (Bgp.Rib.withdraw_peer rib ~peer_id:peer)
             | Op_peer_up peer ->
               (* The recovery protocol: the oracle unmasks, the RIB side
                  re-announces the session's ground truth. *)
               down.(peer) <- false;
               Check.Oracle.peer_up oracle peer;
               List.iter
                 (fun (p, a) -> ignore (Bgp.Rib.announce rib p (route ~peer a)))
                 (Check.Oracle.peer_routes oracle ~peer)
           in
           let equivalent () =
             Bgp.Rib.cardinal rib = Check.Oracle.covered oracle
             && Array.for_all
                  (fun p ->
                    List.equal Bgp.Route.equal (Bgp.Rib.ordered rib p)
                      (Bgp.Decision.rank (Check.Oracle.candidates oracle p)))
                  universe
           in
           List.for_all
             (fun op ->
               apply op;
               equivalent ())
             ops));
  ]

(* --- complexity regressions ------------------------------------------- *)

let load_views rib ~entries ~peers =
  for peer = 0 to peers - 1 do
    let share = Workloads.Rib_gen.view_share ~peers peer in
    let attrs_of =
      Workloads.Churn.route_attrs ~asn:(Bgp.Asn.of_int (64000 + peer))
        ~next_hop:(peer_ip peer)
    in
    Array.iteri
      (fun i (e : Workloads.Rib_gen.entry) ->
        if Workloads.Rib_gen.in_view ~peer ~share_pct:share i then
          ignore (Bgp.Rib.announce rib e.prefix (route ~peer (attrs_of e))))
      entries
  done

let regression_tests =
  [
    Alcotest.test_case "peer-down visits only the failed peer's prefixes" `Quick
      (fun () ->
        let entries = Workloads.Rib_gen.generate_internet ~seed:11L ~count:100_000 in
        let rib = Bgp.Rib.create () in
        load_views rib ~entries ~peers:100;
        let table = Bgp.Rib.cardinal rib in
        Alcotest.(check int) "full table" 100_000 table;
        (* Peer 7 holds the floor share: 1 % of the table. *)
        let victim = 7 in
        let k = Bgp.Rib.peer_prefix_count rib ~peer_id:victim in
        Alcotest.(check bool) (Fmt.str "victim holds a minority (%d)" k) true
          (k > 0 && k < table / 50);
        let v0 = Bgp.Rib.candidate_visits rib in
        let changes = Bgp.Rib.withdraw_peer rib ~peer_id:victim in
        let visits = Bgp.Rib.candidate_visits rib - v0 in
        (* Every indexed prefix produces exactly one change record... *)
        Alcotest.(check int) "one change per held prefix" k (List.length changes);
        (* ... and the candidate-list walks stay proportional to the
           victim's own routes — never to the 100k-prefix table. The
           constant is the average candidate count seen on the walk
           (~5 with this view skew); 16x leaves slack without ever
           letting an O(table) scan back in. *)
        Alcotest.(check bool)
          (Fmt.str "visits %d bounded by 16 x %d routes" visits k)
          true
          (visits <= 16 * k);
        (* The exact count at this seed, so any change to how peer-down
           walks the candidate lists shows, not only one past the bound. *)
        Alcotest.(check int) "exact peer-down visits (seed 11, 100k)" 4976 visits;
        Alcotest.(check bool) "visits well below table size" true
          (visits < table / 2));
    Alcotest.test_case "shard histogram tracks the table's length mix" `Quick
      (fun () ->
        let entries = Workloads.Rib_gen.generate_internet ~seed:11L ~count:20_000 in
        let rib = Bgp.Rib.create () in
        Array.iter
          (fun (e : Workloads.Rib_gen.entry) ->
            ignore
              (Bgp.Rib.announce rib e.prefix
                 (route ~peer:0
                    (Workloads.Churn.route_attrs ~asn:(Bgp.Asn.of_int 64000)
                       ~next_hop:(peer_ip 0) e))))
          entries;
        let hist = Bgp.Rib.length_histogram rib in
        Alcotest.(check int) "33 shards" 33 (Array.length hist);
        Alcotest.(check int) "histogram sums to the table"
          (Bgp.Rib.cardinal rib)
          (Array.fold_left ( + ) 0 hist);
        Alcotest.(check bool) "/24 shard dominates" true
          (hist.(24) > 10_000 && hist.(24) > hist.(23)));
    Alcotest.test_case "storm backup-group churn is bounded and reused" `Quick
      (fun () ->
        let entries = Workloads.Rib_gen.generate_internet ~seed:13L ~count:5_000 in
        let peers = 10 in
        let next_hops = Array.init peers peer_ip in
        let asns = Array.init peers (fun i -> Bgp.Asn.of_int (64000 + i)) in
        let rib = Bgp.Rib.create () in
        let groups = Supercharger.Backup_group.create (Supercharger.Vnh.create ()) in
        let created = ref 0 in
        Supercharger.Backup_group.on_create groups (fun _ -> incr created);
        let algo = Supercharger.Algorithm.create groups in
        let apply_events evs =
          List.iter
            (fun (ev : Workloads.Churn.event) ->
              ignore
                (Supercharger.Algorithm.process_changes algo
                   (Bgp.Rib.apply_update rib ~peer_id:ev.peer
                      ~peer_router_id:next_hops.(ev.peer) ev.update)))
            evs
        in
        load_views rib ~entries ~peers;
        (* Announce through the algorithm once so last_sent/groups exist. *)
        Bgp.Rib.iter rib (fun prefix routes ->
            ignore
              (Supercharger.Algorithm.process_change algo
                 { Bgp.Rib.prefix; before = []; after = routes }));
        let storm peer seed =
          Workloads.Churn.storm ~seed ~entries ~share_pct:60
            ~next_hop:next_hops.(peer) ~asn:asns.(peer) ~peer
        in
        let before = !created in
        apply_events (storm 0 17L);
        let first = !created - before in
        (* Groups are keyed by next-hop pairs: with 10 peers there are at
           most 10 x 9 ordered pairs, however many prefixes the storm
           touches. *)
        Alcotest.(check bool)
          (Fmt.str "first storm allocates at most n(n-1) groups (%d)" first)
          true
          (first <= peers * (peers - 1));
        let before = !created in
        apply_events (storm 0 17L);
        Alcotest.(check int) "identical second storm allocates none" 0
          (!created - before));
  ]

(* --- the Check.Ribscale harness itself -------------------------------- *)

let harness_entries = lazy (Workloads.Rib_gen.generate_internet ~seed:21L ~count:2_000)

let harness_tests =
  [
    Alcotest.test_case "generated schedules always carry a storm" `Quick (fun () ->
        for s = 0 to 19 do
          let t = Check.Ribscale.generate ~seed:(Int64.of_int s) () in
          Alcotest.(check bool)
            (Fmt.str "seed %d has a storm" s)
            true
            (List.exists
               (function Check.Ribscale.Storm _ -> true | _ -> false)
               t.Check.Ribscale.steps)
        done;
        let a = Check.Ribscale.generate ~seed:5L () in
        let b = Check.Ribscale.generate ~seed:5L () in
        Alcotest.(check bool) "deterministic" true (a = b));
    Alcotest.test_case "clean schedules pass, deterministically" `Quick (fun () ->
        let entries = Lazy.force harness_entries in
        let t = Check.Ribscale.generate ~seed:3L ~n_peers:8 ~length:8 () in
        let first = Check.Ribscale.execute ~entries t in
        Alcotest.(check (list string)) "clean pass" [] first;
        Alcotest.(check (list string))
          "same run, same verdict" first
          (Check.Ribscale.execute ~entries t));
    Alcotest.test_case "the interpreter is total on redundant events" `Quick
      (fun () ->
        let entries = Lazy.force harness_entries in
        let t =
          {
            Check.Ribscale.seed = 0L;
            n_peers = 4;
            steps =
              [
                Check.Ribscale.Peer_down 0;
                Check.Ribscale.Storm { peer = 0; share_pct = 100 };
                Check.Ribscale.Readvertise { peer = 0 };
                Check.Ribscale.Peer_down 0;
                Check.Ribscale.Peer_up 0;
                Check.Ribscale.Peer_up 0;
              ];
          }
        in
        Alcotest.(check (list string))
          "down peers are silent, re-ups absorbed" []
          (Check.Ribscale.execute ~entries t));
    Alcotest.test_case "the planted stale-route bug is caught and shrunk" `Quick
      (fun () ->
        (* The same table run_matrix builds internally (seed 3, 2k), so
           the returned counterexample replays against it. *)
        let entries = Workloads.Rib_gen.generate_internet ~seed:3L ~count:2_000 in
        match
          Check.Ribscale.run_matrix ~n_peers:8 ~length:8 ~entries:2_000 ~mutate:true
            ~seed:3L ~schedules:2 ()
        with
        | None -> Alcotest.fail "the armed bug survived undetected"
        | Some f ->
          Alcotest.(check bool) "violations reported" true
            (f.Check.Harness.violations <> []);
          Alcotest.(check bool) "shrunk no longer than the original" true
            (Check.Ribscale.length f.Check.Harness.shrunk
            <= Check.Ribscale.length f.Check.Harness.schedule);
          Alcotest.(check bool) "shrunk still fails" true
            (Check.Ribscale.execute ~mutate:true ~entries f.Check.Harness.shrunk
            <> []));
  ]

let suite =
  [
    ("ribscale.rib_vs_oracle", property_tests);
    ("ribscale.regressions", regression_tests);
    ("ribscale.harness", harness_tests);
  ]
