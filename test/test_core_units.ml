(* Unit and property tests for the two other §1 supercharging
   applications that ride the VNH/VMAC machinery: the FIB cache
   (aggregates towards the router, specifics in the switch) and the
   per-flow load balancer. Both are exercised standalone against a
   captured flow-mod sink — no switch, no clock. *)

open Supercharger

let ip = Net.Ipv4.of_string_exn
let pfx = Net.Prefix.v

let peer i =
  {
    Provisioner.pi_ip = ip (Fmt.str "10.0.0.%d" (2 + i));
    pi_mac = Net.Mac.of_int64 (Int64.of_int (0xBB_0000_0000 + 2 + i));
    pi_port = 1 + i;
  }

let peer_ip i = (peer i).Provisioner.pi_ip

(* --- FIB cache --------------------------------------------------------- *)

let make_fib ?(n_peers = 3) () =
  let sent = ref [] in
  let fib =
    Fib_cache.create ~allocator:(Vnh.create ()) ~send:(fun m -> sent := m :: !sent) ()
  in
  for i = 0 to n_peers - 1 do
    Fib_cache.declare_peer fib (peer i)
  done;
  (fib, sent)

let emissions =
  let pp ppf = function
    | Fib_cache.Announce_aggregate p -> Fmt.pf ppf "announce %a" Net.Prefix.pp p
    | Fib_cache.Withdraw_aggregate p -> Fmt.pf ppf "withdraw %a" Net.Prefix.pp p
  in
  Alcotest.testable (Fmt.list pp) ( = )

let fib_tests =
  [
    Alcotest.test_case "first specific announces the cover, last one retracts it"
      `Quick (fun () ->
        let fib, _ = make_fib () in
        Alcotest.check emissions "first specific"
          [Fib_cache.Announce_aggregate (pfx "1.0.0.0/8")]
          (Fib_cache.route fib (pfx "1.2.3.0/24") (Some (peer_ip 0)));
        Alcotest.check emissions "second specific under the same cover" []
          (Fib_cache.route fib (pfx "1.9.0.0/16") (Some (peer_ip 1)));
        Alcotest.(check int) "two specifics" 2 (Fib_cache.specifics fib);
        Alcotest.(check int) "one aggregate" 1 (Fib_cache.aggregates fib);
        Alcotest.check emissions "removing one keeps the cover" []
          (Fib_cache.route fib (pfx "1.2.3.0/24") None);
        Alcotest.check emissions "removing the last withdraws the cover"
          [Fib_cache.Withdraw_aggregate (pfx "1.0.0.0/8")]
          (Fib_cache.route fib (pfx "1.9.0.0/16") None);
        Alcotest.(check int) "empty" 0 (Fib_cache.specifics fib));
    Alcotest.test_case "resolution is longest-prefix match over the specifics"
      `Quick (fun () ->
        let fib, _ = make_fib () in
        ignore (Fib_cache.route fib (pfx "10.0.0.0/8") (Some (peer_ip 0)));
        ignore (Fib_cache.route fib (pfx "10.1.0.0/16") (Some (peer_ip 1)));
        ignore (Fib_cache.route fib (pfx "10.1.2.0/24") (Some (peer_ip 2)));
        let resolve a = Fib_cache.resolve fib (ip a) in
        Alcotest.(check (option (testable Net.Ipv4.pp Net.Ipv4.equal)))
          "/24 wins" (Some (peer_ip 2)) (resolve "10.1.2.5");
        Alcotest.(check (option (testable Net.Ipv4.pp Net.Ipv4.equal)))
          "/16 next" (Some (peer_ip 1)) (resolve "10.1.9.9");
        Alcotest.(check (option (testable Net.Ipv4.pp Net.Ipv4.equal)))
          "/8 backstop" (Some (peer_ip 0)) (resolve "10.9.9.9");
        Alcotest.(check (option (testable Net.Ipv4.pp Net.Ipv4.equal)))
          "outside all covers" None (resolve "11.0.0.1"));
    Alcotest.test_case "re-pointing a specific replaces, never duplicates" `Quick
      (fun () ->
        let fib, _ = make_fib () in
        ignore (Fib_cache.route fib (pfx "1.2.3.0/24") (Some (peer_ip 0)));
        Alcotest.check emissions "re-point emits nothing for the router" []
          (Fib_cache.route fib (pfx "1.2.3.0/24") (Some (peer_ip 1)));
        Alcotest.(check int) "still one specific" 1 (Fib_cache.specifics fib);
        Alcotest.(check (option (testable Net.Ipv4.pp Net.Ipv4.equal)))
          "new owner" (Some (peer_ip 1))
          (Fib_cache.resolve fib (ip "1.2.3.4")));
    Alcotest.test_case "re-route is a Modify_strict, same next hop is silent"
      `Quick (fun () ->
        let fib, sent = make_fib () in
        let commands () =
          (* oldest first *)
          List.rev_map
            (function
              | Openflow.Message.Flow_mod fm -> fm.Openflow.Flow_table.command
              | _ -> Alcotest.fail "expected only flow mods")
            !sent
        in
        ignore (Fib_cache.route fib (pfx "1.2.3.0/24") (Some (peer_ip 0)));
        Alcotest.(check int) "fresh route is one Add" 1 (List.length !sent);
        (* Re-announcing the same next hop must not disturb the switch:
           the rule already forwards correctly. *)
        ignore (Fib_cache.route fib (pfx "1.2.3.0/24") (Some (peer_ip 0)));
        Alcotest.(check int) "same next hop sends nothing" 1 (List.length !sent);
        Alcotest.(check int) "and is not counted" 1 (Fib_cache.rules_sent fib);
        (* A genuine re-route updates the installed rule in place. *)
        ignore (Fib_cache.route fib (pfx "1.2.3.0/24") (Some (peer_ip 1)));
        (match commands () with
        | [Openflow.Flow_table.Add; Openflow.Flow_table.Modify_strict] -> ()
        | _ -> Alcotest.fail "expected Add then Modify_strict");
        Alcotest.(check int) "two rules really sent" 2 (Fib_cache.rules_sent fib);
        match List.hd !sent with
        | Openflow.Message.Flow_mod fm ->
          let out =
            List.find_map
              (function Openflow.Action.Output p -> Some p | _ -> None)
              fm.Openflow.Flow_table.fm_actions
          in
          Alcotest.(check (option int)) "modify points at the new peer"
            (Some (peer 1).Provisioner.pi_port) out
        | _ -> Alcotest.fail "expected a flow mod");
    Alcotest.test_case "undeclared peer is rejected" `Quick (fun () ->
        let fib, _ = make_fib ~n_peers:1 () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Fib_cache.route fib (pfx "1.0.0.0/24") (Some (ip "9.9.9.9")));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "compression factor is #specifics / #aggregates" `Quick
      (fun () ->
        let fib, sent = make_fib () in
        for i = 0 to 15 do
          ignore
            (Fib_cache.route fib
               (pfx (Fmt.str "7.%d.0.0/16" i))
               (Some (peer_ip (i mod 3))))
        done;
        Alcotest.(check int) "one router entry" 1 (Fib_cache.aggregates fib);
        Alcotest.(check (float 1e-9)) "16x compression" 16.0
          (Fib_cache.compression_factor fib);
        (* rules_sent must equal the flow mods the switch really had to
           process: exactly one per specific, no double counting. *)
        Alcotest.(check int) "one rule per specific" 16 (Fib_cache.rules_sent fib);
        Alcotest.(check int) "counter matches the wire" (List.length !sent)
          (Fib_cache.rules_sent fib);
        (* Refreshing every route with its current next hop is free... *)
        for i = 0 to 15 do
          ignore
            (Fib_cache.route fib
               (pfx (Fmt.str "7.%d.0.0/16" i))
               (Some (peer_ip (i mod 3))))
        done;
        Alcotest.(check int) "refresh sends nothing" 16 (Fib_cache.rules_sent fib);
        (* ...while one genuine re-route costs exactly one flow mod. *)
        ignore (Fib_cache.route fib (pfx "7.0.0.0/16") (Some (peer_ip 1)));
        Alcotest.(check int) "re-route costs one" 17 (Fib_cache.rules_sent fib);
        Alcotest.(check int) "still matches the wire" (List.length !sent)
          (Fib_cache.rules_sent fib));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"fib cache == naive LPM reference" ~count:200
         QCheck.(small_list (pair (pair (0 -- 7) (0 -- 2)) (option (0 -- 2))))
         (fun ops ->
           let fib, _ = make_fib () in
           (* Model: assoc list prefix -> peer, longest match on lookup. *)
           let model = Hashtbl.create 8 in
           let prefixes =
             [| pfx "20.0.0.0/8"; pfx "20.1.0.0/16"; pfx "20.1.2.0/24";
                pfx "20.128.0.0/16"; pfx "21.0.0.0/8"; pfx "21.5.0.0/16";
                pfx "22.1.0.0/16"; pfx "22.1.99.0/24" |]
           in
           List.iter
             (fun ((pi, _), owner) ->
               let p = prefixes.(pi) in
               (match owner with
               | Some o -> Hashtbl.replace model p (peer_ip o)
               | None -> Hashtbl.remove model p);
               ignore (Fib_cache.route fib p (Option.map peer_ip owner)))
             ops;
           let naive a =
             Hashtbl.fold
               (fun p o best ->
                 if Net.Prefix.mem a p then
                   match best with
                   | Some (bp, _) when Net.Prefix.length bp >= Net.Prefix.length p ->
                     best
                   | _ -> Some (p, o)
                 else best)
               model None
             |> Option.map snd
           in
           let probes =
             [ "20.1.2.3"; "20.1.9.9"; "20.200.0.1"; "21.5.5.5"; "21.9.9.9";
               "22.1.99.1"; "22.1.1.1"; "23.0.0.1" ]
           in
           Hashtbl.length model = Fib_cache.specifics fib
           && List.for_all
                (fun a ->
                  Option.equal Net.Ipv4.equal (naive (ip a))
                    (Fib_cache.resolve fib (ip a)))
                probes));
  ]

(* --- load balancer ----------------------------------------------------- *)

let make_lb ?(n_targets = 3) () =
  let sent = ref [] in
  let lb =
    Load_balancer.create ~allocator:(Vnh.create ())
      ~send:(fun m -> sent := m :: !sent)
  in
  for i = 0 to n_targets - 1 do
    Load_balancer.add_target lb (peer i)
  done;
  (lb, sent)

let key i =
  {
    Load_balancer.fk_src = ip (Fmt.str "172.16.%d.%d" (i / 256) (i mod 256));
    fk_dst = ip "1.2.3.4";
    fk_src_port = 10000 + i;
    fk_dst_port = 53;
  }

let nh_opt = Alcotest.(option (testable Net.Ipv4.pp Net.Ipv4.equal))

let lb_tests =
  [
    Alcotest.test_case "flows spread least-loaded first" `Quick (fun () ->
        let lb, _ = make_lb ~n_targets:3 () in
        for i = 0 to 8 do
          ignore (Load_balancer.assign lb (key i))
        done;
        for t = 0 to 2 do
          Alcotest.(check int)
            (Fmt.str "target %d load" t)
            3
            (Load_balancer.load lb (peer_ip t))
        done;
        Alcotest.(check (float 1e-9)) "perfect spread" 1.0
          (Load_balancer.imbalance lb));
    Alcotest.test_case "assign is idempotent per flow" `Quick (fun () ->
        let lb, _ = make_lb () in
        let first = Load_balancer.assign lb (key 0) in
        let again = Load_balancer.assign lb (key 0) in
        Alcotest.(check bool) "same target" true (Net.Ipv4.equal first again);
        Alcotest.(check int) "counted once" 1
          (Load_balancer.load lb first);
        Alcotest.check nh_opt "recorded" (Some first)
          (Load_balancer.assignment lb (key 0)));
    Alcotest.test_case "losing a target rebalances its flows onto survivors"
      `Quick (fun () ->
        let lb, _ = make_lb ~n_targets:3 () in
        for i = 0 to 8 do
          ignore (Load_balancer.assign lb (key i))
        done;
        Load_balancer.remove_target lb (peer_ip 1);
        Alcotest.(check int) "lost target holds nothing" 0
          (Load_balancer.load lb (peer_ip 1));
        Alcotest.(check int) "every flow still pinned" 9
          (Load_balancer.load lb (peer_ip 0) + Load_balancer.load lb (peer_ip 2));
        Alcotest.(check bool) "least-loaded-first keeps the spread tight" true
          (abs (Load_balancer.load lb (peer_ip 0) - Load_balancer.load lb (peer_ip 2))
          <= 1);
        for i = 0 to 8 do
          match Load_balancer.assignment lb (key i) with
          | Some nh ->
            Alcotest.(check bool) "pinned to a survivor" true
              (not (Net.Ipv4.equal nh (peer_ip 1)))
          | None -> Alcotest.fail "flow lost its assignment"
        done);
    Alcotest.test_case "no survivors deletes every balanced flow" `Quick (fun () ->
        let lb, _ = make_lb ~n_targets:2 () in
        for i = 0 to 3 do
          ignore (Load_balancer.assign lb (key i))
        done;
        Load_balancer.remove_target lb (peer_ip 0);
        Load_balancer.remove_target lb (peer_ip 1);
        for i = 0 to 3 do
          Alcotest.check nh_opt "unpinned" None (Load_balancer.assignment lb (key i))
        done);
    Alcotest.test_case "the static hash piles skewed traffic, assign does not"
      `Quick (fun () ->
        (* Flows whose destinations share low bits — the paper's
           complaint about stateless hashes. *)
        let skewed =
          List.init 8 (fun i ->
              { Load_balancer.fk_src = ip (Fmt.str "172.16.0.%d" i);
                fk_dst = ip (Fmt.str "5.%d.0.16" i);
                fk_src_port = 1000 + i; fk_dst_port = 53 })
        in
        let buckets =
          List.sort_uniq compare
            (List.map (Load_balancer.static_hash ~n_targets:4) skewed)
        in
        Alcotest.(check int) "all eight flows hash to one bucket" 1
          (List.length buckets);
        let lb, _ = make_lb ~n_targets:4 () in
        List.iter (fun k -> ignore (Load_balancer.assign lb k)) skewed;
        Alcotest.(check (float 1e-9)) "exact rules spread them evenly" 1.0
          (Load_balancer.imbalance lb));
    Alcotest.test_case "flow keys come from UDP packets only" `Quick (fun () ->
        let udp =
          Net.Ipv4_packet.udp ~src:(ip "172.16.0.1") ~dst:(ip "1.2.3.4")
            ~src_port:1234 ~dst_port:53 "x"
        in
        (match Load_balancer.flow_key_of_packet udp with
        | Some k ->
          Alcotest.(check int) "src port" 1234 k.Load_balancer.fk_src_port;
          Alcotest.(check int) "dst port" 53 k.Load_balancer.fk_dst_port
        | None -> Alcotest.fail "UDP packet yields no flow key");
        let raw =
          Net.Ipv4_packet.make ~src:(ip "172.16.0.1") ~dst:(ip "1.2.3.4")
            (Net.Ipv4_packet.Raw { protocol = 6; body = "" })
        in
        Alcotest.(check bool) "non-UDP has no key" true
          (Load_balancer.flow_key_of_packet raw = None));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"imbalance stays within one flow of perfect"
         ~count:100
         QCheck.(pair (1 -- 4) (small_list small_nat))
         (fun (n_targets, flows) ->
           let lb, _ = make_lb ~n_targets () in
           let distinct = List.sort_uniq compare flows in
           List.iter (fun i -> ignore (Load_balancer.assign lb (key i))) distinct;
           let loads =
             List.init n_targets (fun t -> Load_balancer.load lb (peer_ip t))
           in
           let lo = List.fold_left min max_int loads
           and hi = List.fold_left max 0 loads in
           List.fold_left ( + ) 0 loads = List.length distinct
           && (distinct = [] || hi - lo <= 1)));
  ]

let suite = [("core.fib_cache", fib_tests); ("core.load_balancer", lb_tests)]
