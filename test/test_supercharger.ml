(* Tests for the paper's contribution: VNH allocation, backup groups,
   the Listing 1 algorithm, the ARP responder, the Listing 2
   provisioner, and controller replication determinism. *)

let ip = Net.Ipv4.of_string_exn
let mac = Net.Mac.of_string_exn
let pfx = Net.Prefix.v
let asn = Bgp.Asn.of_int

let attrs ?(path = [65002]) ?local_pref nh =
  Bgp.Attributes.make
    ~as_path:[Bgp.Attributes.Seq (List.map asn path)]
    ?local_pref ~next_hop:(ip nh) ()

let route ?(peer_id = 0) ?(router_id = "10.0.0.2") a =
  Bgp.Route.make ~peer_id ~peer_router_id:(ip router_id) a

let vnh_tests =
  [
    Alcotest.test_case "fresh allocations are sequential and in pool" `Quick (fun () ->
        let v = Supercharger.Vnh.create () in
        let vnh1, vmac1 = Supercharger.Vnh.fresh v in
        let vnh2, vmac2 = Supercharger.Vnh.fresh v in
        Alcotest.(check string) "first vnh" "10.199.0.1" (Net.Ipv4.to_string vnh1);
        Alcotest.(check string) "second vnh" "10.199.0.2" (Net.Ipv4.to_string vnh2);
        Alcotest.(check string) "first vmac" "00:ff:00:00:00:01" (Net.Mac.to_string vmac1);
        Alcotest.(check string) "second vmac" "00:ff:00:00:00:02" (Net.Mac.to_string vmac2);
        Alcotest.(check bool) "in pool" true (Supercharger.Vnh.in_pool v vnh1);
        Alcotest.(check int) "count" 2 (Supercharger.Vnh.allocated v));
    Alcotest.test_case "is_virtual_mac tracks allocations" `Quick (fun () ->
        let v = Supercharger.Vnh.create () in
        let _, vmac = Supercharger.Vnh.fresh v in
        Alcotest.(check bool) "allocated" true (Supercharger.Vnh.is_virtual_mac v vmac);
        Alcotest.(check bool) "not yet allocated" false
          (Supercharger.Vnh.is_virtual_mac v (mac "00:ff:00:00:00:02")));
    Alcotest.test_case "pool exhaustion raises" `Quick (fun () ->
        let v = Supercharger.Vnh.create ~pool:(pfx "10.199.0.0/24") () in
        for _ = 1 to 254 do
          ignore (Supercharger.Vnh.fresh v)
        done;
        Alcotest.(check bool) "raises" true
          (try
             ignore (Supercharger.Vnh.fresh v);
             false
           with Failure _ -> true));
    Alcotest.test_case "custom pool respected" `Quick (fun () ->
        let v = Supercharger.Vnh.create ~pool:(pfx "172.16.0.0/16") () in
        let vnh, _ = Supercharger.Vnh.fresh v in
        Alcotest.(check string) "vnh" "172.16.0.1" (Net.Ipv4.to_string vnh));
  ]

let make_groups ?group_size () =
  Supercharger.Backup_group.create ?group_size (Supercharger.Vnh.create ())

let backup_group_tests =
  [
    Alcotest.test_case "same tuple returns the same binding" `Quick (fun () ->
        let g = make_groups () in
        let b1 = Supercharger.Backup_group.find_or_create g [ip "10.0.0.2"; ip "10.0.0.3"] in
        let b2 = Supercharger.Backup_group.find_or_create g [ip "10.0.0.2"; ip "10.0.0.3"] in
        Alcotest.(check bool) "same vnh" true (Net.Ipv4.equal b1.vnh b2.vnh);
        Alcotest.(check int) "one group" 1 (Supercharger.Backup_group.count g));
    Alcotest.test_case "order matters: (a,b) <> (b,a)" `Quick (fun () ->
        let g = make_groups () in
        let b1 = Supercharger.Backup_group.find_or_create g [ip "10.0.0.2"; ip "10.0.0.3"] in
        let b2 = Supercharger.Backup_group.find_or_create g [ip "10.0.0.3"; ip "10.0.0.2"] in
        Alcotest.(check bool) "distinct" false (Net.Ipv4.equal b1.vnh b2.vnh);
        Alcotest.(check int) "two groups" 2 (Supercharger.Backup_group.count g));
    Alcotest.test_case "tuples are truncated to group size" `Quick (fun () ->
        let g = make_groups ~group_size:2 () in
        let b1 =
          Supercharger.Backup_group.find_or_create g
            [ip "10.0.0.2"; ip "10.0.0.3"; ip "10.0.0.4"]
        in
        let b2 = Supercharger.Backup_group.find_or_create g [ip "10.0.0.2"; ip "10.0.0.3"] in
        Alcotest.(check bool) "same group" true (Net.Ipv4.equal b1.vnh b2.vnh));
    Alcotest.test_case "group size three distinguishes deeper backups" `Quick (fun () ->
        let g = make_groups ~group_size:3 () in
        let b1 =
          Supercharger.Backup_group.find_or_create g
            [ip "10.0.0.2"; ip "10.0.0.3"; ip "10.0.0.4"]
        in
        let b2 =
          Supercharger.Backup_group.find_or_create g
            [ip "10.0.0.2"; ip "10.0.0.3"; ip "10.0.0.5"]
        in
        Alcotest.(check bool) "distinct" false (Net.Ipv4.equal b1.vnh b2.vnh));
    Alcotest.test_case "lookups by vnh and vmac" `Quick (fun () ->
        let g = make_groups () in
        let b = Supercharger.Backup_group.find_or_create g [ip "10.0.0.2"; ip "10.0.0.3"] in
        Alcotest.(check bool) "by vnh" true
          (Supercharger.Backup_group.find_by_vnh g b.vnh <> None);
        Alcotest.(check bool) "by vmac" true
          (Supercharger.Backup_group.find_by_vmac g b.vmac <> None);
        Alcotest.(check bool) "unknown vnh" true
          (Supercharger.Backup_group.find_by_vnh g (ip "10.199.0.99") = None));
    Alcotest.test_case "with_primary / with_member" `Quick (fun () ->
        let g = make_groups () in
        ignore (Supercharger.Backup_group.find_or_create g [ip "10.0.0.2"; ip "10.0.0.3"]);
        ignore (Supercharger.Backup_group.find_or_create g [ip "10.0.0.3"; ip "10.0.0.2"]);
        ignore (Supercharger.Backup_group.find_or_create g [ip "10.0.0.4"; ip "10.0.0.3"]);
        Alcotest.(check int) "primary .2" 1
          (List.length (Supercharger.Backup_group.with_primary g (ip "10.0.0.2")));
        Alcotest.(check int) "member .3" 3
          (List.length (Supercharger.Backup_group.with_member g (ip "10.0.0.3"))));
    Alcotest.test_case "on_create fires once per new group" `Quick (fun () ->
        let g = make_groups () in
        let created = ref 0 in
        Supercharger.Backup_group.on_create g (fun _ -> incr created);
        ignore (Supercharger.Backup_group.find_or_create g [ip "10.0.0.2"; ip "10.0.0.3"]);
        ignore (Supercharger.Backup_group.find_or_create g [ip "10.0.0.2"; ip "10.0.0.3"]);
        ignore (Supercharger.Backup_group.find_or_create g [ip "10.0.0.3"; ip "10.0.0.2"]);
        Alcotest.(check int) "two creations" 2 !created);
    Alcotest.test_case "theoretical max matches the paper" `Quick (fun () ->
        (* §2: "considering a router with 10 neighbors ... the number of
           backup-groups is only 90" *)
        Alcotest.(check int) "n=10,k=2" 90
          (Supercharger.Backup_group.theoretical_max ~n_peers:10 ~group_size:2);
        Alcotest.(check int) "n=2,k=2" 2
          (Supercharger.Backup_group.theoretical_max ~n_peers:2 ~group_size:2);
        Alcotest.(check int) "k>n" 0
          (Supercharger.Backup_group.theoretical_max ~n_peers:1 ~group_size:2);
        (* The table behind it: allocating every ordered pair of n peers,
           as a worst-case table would, makes n*(n-1) groups. *)
        List.iter
          (fun n ->
            let g = make_groups () in
            for i = 0 to n - 1 do
              for j = 0 to n - 1 do
                if i <> j then
                  ignore
                    (Supercharger.Backup_group.find_or_create g
                       [Net.Ipv4.of_octets 10 0 0 (2 + i); Net.Ipv4.of_octets 10 0 0 (2 + j)])
              done
            done;
            Alcotest.(check int) (Fmt.str "n=%d: every ordered pair" n) (n * (n - 1))
              (Supercharger.Backup_group.count g);
            Alcotest.(check int) (Fmt.str "n=%d: the theoretical max" n)
              (Supercharger.Backup_group.count g)
              (Supercharger.Backup_group.theoretical_max ~n_peers:n ~group_size:2))
          [2; 3; 4; 5; 6; 8; 10; 12; 16]);
  ]

(* Drives the algorithm through RIB changes like the controller does. *)
let make_algo () =
  let groups = make_groups () in
  let rib = Bgp.Rib.create () in
  let algo = Supercharger.Algorithm.create groups in
  let feed ?(peer_id = 0) ?(router_id = "10.0.0.2") ?local_pref prefix nh =
    match
      Bgp.Rib.announce rib (pfx prefix) (route ~peer_id ~router_id (attrs ?local_pref nh))
    with
    | Some change -> Supercharger.Algorithm.process_change algo change
    | None -> None
  in
  let withdraw ~peer_id prefix =
    match Bgp.Rib.withdraw rib (pfx prefix) ~peer_id with
    | Some change -> Supercharger.Algorithm.process_change algo change
    | None -> None
  in
  (groups, rib, algo, feed, withdraw)

let algorithm_tests =
  [
    Alcotest.test_case "single candidate announces the real next hop" `Quick
      (fun () ->
        let _, _, _, feed, _ = make_algo () in
        match feed "1.0.0.0/24" "10.0.0.2" with
        | Some (Supercharger.Algorithm.Announce (_, a)) ->
          Alcotest.(check string) "real nh" "10.0.0.2"
            (Net.Ipv4.to_string a.Bgp.Attributes.next_hop)
        | _ -> Alcotest.fail "expected announce");
    Alcotest.test_case "second candidate rewrites to a VNH" `Quick (fun () ->
        let groups, _, _, feed, _ = make_algo () in
        ignore (feed ~peer_id:0 ~local_pref:200 "1.0.0.0/24" "10.0.0.2");
        match feed ~peer_id:1 ~router_id:"10.0.0.3" ~local_pref:100 "1.0.0.0/24" "10.0.0.3" with
        | Some (Supercharger.Algorithm.Announce (_, a)) ->
          Alcotest.(check bool) "vnh used" true
            (Supercharger.Backup_group.find_by_vnh groups a.Bgp.Attributes.next_hop <> None);
          (match Supercharger.Backup_group.find_by_vnh groups a.Bgp.Attributes.next_hop with
          | Some b ->
            Alcotest.(check (list string)) "group order" ["10.0.0.2"; "10.0.0.3"]
              (List.map Net.Ipv4.to_string b.next_hops)
          | None -> Alcotest.fail "no binding")
        | _ -> Alcotest.fail "expected announce");
    Alcotest.test_case "prefixes sharing the backup-group share the VNH" `Quick
      (fun () ->
        let _, _, _, feed, _ = make_algo () in
        ignore (feed ~peer_id:0 ~local_pref:200 "1.0.0.0/24" "10.0.0.2");
        let first = feed ~peer_id:1 ~router_id:"10.0.0.3" ~local_pref:100 "1.0.0.0/24" "10.0.0.3" in
        ignore (feed ~peer_id:0 ~local_pref:200 "2.0.0.0/24" "10.0.0.2");
        let second = feed ~peer_id:1 ~router_id:"10.0.0.3" ~local_pref:100 "2.0.0.0/24" "10.0.0.3" in
        match first, second with
        | Some (Supercharger.Algorithm.Announce (_, a1)), Some (Supercharger.Algorithm.Announce (_, a2)) ->
          Alcotest.(check string) "same vnh"
            (Net.Ipv4.to_string a1.Bgp.Attributes.next_hop)
            (Net.Ipv4.to_string a2.Bgp.Attributes.next_hop)
        | _ -> Alcotest.fail "expected two announces");
    Alcotest.test_case "losing the backup reverts to the real next hop" `Quick
      (fun () ->
        let _, _, _, feed, withdraw = make_algo () in
        ignore (feed ~peer_id:0 ~local_pref:200 "1.0.0.0/24" "10.0.0.2");
        ignore (feed ~peer_id:1 ~router_id:"10.0.0.3" ~local_pref:100 "1.0.0.0/24" "10.0.0.3");
        match withdraw ~peer_id:1 "1.0.0.0/24" with
        | Some (Supercharger.Algorithm.Announce (_, a)) ->
          Alcotest.(check string) "back to real" "10.0.0.2"
            (Net.Ipv4.to_string a.Bgp.Attributes.next_hop)
        | _ -> Alcotest.fail "expected announce");
    Alcotest.test_case "losing everything withdraws" `Quick (fun () ->
        let _, _, _, feed, withdraw = make_algo () in
        ignore (feed "1.0.0.0/24" "10.0.0.2");
        match withdraw ~peer_id:0 "1.0.0.0/24" with
        | Some (Supercharger.Algorithm.Withdraw p) ->
          Alcotest.(check string) "prefix" "1.0.0.0/24" (Net.Prefix.to_string p)
        | _ -> Alcotest.fail "expected withdraw");
    Alcotest.test_case "withdraw of an unannounced prefix emits nothing" `Quick
      (fun () ->
        let _, rib, algo, _, _ = make_algo () in
        (* A change that leaves the candidate list empty on both sides. *)
        let change = { Bgp.Rib.prefix = pfx "9.0.0.0/24"; before = []; after = [] } in
        ignore rib;
        Alcotest.(check bool) "silent" true
          (Supercharger.Algorithm.process_change algo change = None));
    Alcotest.test_case "identical re-announcement is suppressed" `Quick (fun () ->
        let _, _, _, feed, _ = make_algo () in
        ignore (feed "1.0.0.0/24" "10.0.0.2");
        Alcotest.(check bool) "suppressed" true (feed "1.0.0.0/24" "10.0.0.2" = None));
    Alcotest.test_case "backup change allocates a new VNH" `Quick (fun () ->
        let groups, _, _, feed, withdraw = make_algo () in
        ignore (feed ~peer_id:0 ~local_pref:200 "1.0.0.0/24" "10.0.0.2");
        ignore (feed ~peer_id:1 ~router_id:"10.0.0.3" ~local_pref:100 "1.0.0.0/24" "10.0.0.3");
        ignore (feed ~peer_id:2 ~router_id:"10.0.0.4" ~local_pref:50 "1.0.0.0/24" "10.0.0.4");
        (* Backup is .3; when .3 disappears the group becomes (.2,.4). *)
        match withdraw ~peer_id:1 "1.0.0.0/24" with
        | Some (Supercharger.Algorithm.Announce (_, a)) ->
          (match Supercharger.Backup_group.find_by_vnh groups a.Bgp.Attributes.next_hop with
          | Some b ->
            Alcotest.(check (list string)) "new tuple" ["10.0.0.2"; "10.0.0.4"]
              (List.map Net.Ipv4.to_string b.next_hops);
            Alcotest.(check int) "two groups exist" 2 (Supercharger.Backup_group.count groups)
          | None -> Alcotest.fail "not a vnh")
        | _ -> Alcotest.fail "expected announce");
    Alcotest.test_case "announced_count tracks state" `Quick (fun () ->
        let _, _, algo, feed, withdraw = make_algo () in
        ignore (feed "1.0.0.0/24" "10.0.0.2");
        ignore (feed "2.0.0.0/24" "10.0.0.2");
        Alcotest.(check int) "two" 2 (Supercharger.Algorithm.announced_count algo);
        ignore (withdraw ~peer_id:0 "1.0.0.0/24");
        Alcotest.(check int) "one" 1 (Supercharger.Algorithm.announced_count algo));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"online algorithm agrees with offline recomputation"
         ~count:100
         QCheck.(small_list (pair (0 -- 2) (option (0 -- 2))))
         (fun ops ->
           (* Random announce/withdraw streams over three peers and three
              prefixes; afterwards the algorithm's last-announced state
              must equal what a from-scratch pass over the final RIB
              would produce. *)
           let groups = make_groups () in
           let rib = Bgp.Rib.create () in
           let algo = Supercharger.Algorithm.create groups in
           let prefixes = [|"1.0.0.0/24"; "2.0.0.0/24"; "3.0.0.0/24"|] in
           List.iteri
             (fun i (peer_id, action) ->
               let prefix = pfx prefixes.(i mod 3) in
               let change =
                 match action with
                 | Some lp_idx ->
                   Bgp.Rib.announce rib prefix
                     (route ~peer_id
                        ~router_id:(Fmt.str "10.0.0.%d" (peer_id + 2))
                        (attrs ~local_pref:((lp_idx * 50) + 100)
                           (Fmt.str "10.0.0.%d" (peer_id + 2))))
                 | None -> Bgp.Rib.withdraw rib prefix ~peer_id
               in
               match change with
               | Some c -> ignore (Supercharger.Algorithm.process_change algo c)
               | None -> ())
             ops;
           Array.for_all
             (fun p ->
               let prefix = pfx p in
               let expected =
                 match Bgp.Rib.ordered rib prefix with
                 | [] -> None
                 | (best : Bgp.Route.t) :: _ as ranked ->
                   let nhs =
                     List.sort_uniq Net.Ipv4.compare
                       (List.map Bgp.Route.next_hop ranked)
                   in
                   if List.length nhs <= 1 then Some best.attrs.Bgp.Attributes.next_hop
                   else
                     (* The VNH the algorithm must have used. *)
                     Option.map
                       (fun (b : Supercharger.Backup_group.binding) -> b.vnh)
                       (Supercharger.Backup_group.find groups
                          (List.map Bgp.Route.next_hop ranked))
               in
               let got =
                 Option.map
                   (fun (a : Bgp.Attributes.t) -> a.Bgp.Attributes.next_hop)
                   (Supercharger.Algorithm.last_announced algo prefix)
               in
               Option.equal Net.Ipv4.equal expected got)
             prefixes));
  ]

let arp_responder_tests =
  [
    Alcotest.test_case "replies for a VNH with the VMAC" `Quick (fun () ->
        let groups = make_groups () in
        let b = Supercharger.Backup_group.find_or_create groups [ip "10.0.0.2"; ip "10.0.0.3"] in
        let req =
          Net.Arp.request ~sender_mac:(mac "00:aa:00:00:00:01") ~sender_ip:(ip "10.0.0.1")
            ~target_ip:b.vnh
        in
        match Supercharger.Arp_responder.handle groups req with
        | Supercharger.Arp_responder.Reply r ->
          Alcotest.(check string) "vmac" (Net.Mac.to_string b.vmac)
            (Net.Mac.to_string r.Net.Arp.sender_mac);
          Alcotest.(check string) "addressed back" "00:aa:00:00:00:01"
            (Net.Mac.to_string r.Net.Arp.target_mac)
        | _ -> Alcotest.fail "expected reply");
    Alcotest.test_case "floods requests for unknown targets" `Quick (fun () ->
        let groups = make_groups () in
        let req =
          Net.Arp.request ~sender_mac:(mac "00:aa:00:00:00:01") ~sender_ip:(ip "10.0.0.1")
            ~target_ip:(ip "10.0.0.2")
        in
        Alcotest.(check bool) "flood" true
          (Supercharger.Arp_responder.handle groups req = Supercharger.Arp_responder.Flood));
    Alcotest.test_case "ignores replies" `Quick (fun () ->
        let groups = make_groups () in
        let reply =
          Net.Arp.reply
            (Net.Arp.request ~sender_mac:(mac "00:aa:00:00:00:01")
               ~sender_ip:(ip "10.0.0.1") ~target_ip:(ip "10.0.0.2"))
            ~sender_mac:(mac "00:bb:00:00:00:02")
        in
        Alcotest.(check bool) "ignore" true
          (Supercharger.Arp_responder.handle groups reply = Supercharger.Arp_responder.Ignore));
    Alcotest.test_case "floods for an unallocated address of the VNH pool" `Quick
      (fun () ->
        (* In-pool but never handed out: the responder must not claim
           it, or the router would blackhole traffic on a ghost MAC. *)
        let groups = make_groups () in
        ignore
          (Supercharger.Backup_group.find_or_create groups
             [ip "10.0.0.2"; ip "10.0.0.3"]);
        let req =
          Net.Arp.request ~sender_mac:(mac "00:aa:00:00:00:01")
            ~sender_ip:(ip "10.0.0.1") ~target_ip:(ip "10.199.0.250")
        in
        Alcotest.(check bool) "flood" true
          (Supercharger.Arp_responder.handle groups req
          = Supercharger.Arp_responder.Flood));
    Alcotest.test_case "re-query after GC floods instead of replying stale" `Quick
      (fun () ->
        (* The controller destroys an idle group once its linger expires;
           a router re-querying the dead VNH afterwards must get a flood
           (nobody owns it), never the recycled VMAC. *)
        let groups = make_groups () in
        let b =
          Supercharger.Backup_group.find_or_create groups
            [ip "10.0.0.2"; ip "10.0.0.3"]
        in
        Supercharger.Backup_group.acquire groups b;
        Supercharger.Backup_group.release groups b;
        Alcotest.(check bool) "destroyed" true
          (Supercharger.Backup_group.destroy groups b);
        let req =
          Net.Arp.request ~sender_mac:(mac "00:aa:00:00:00:01")
            ~sender_ip:(ip "10.0.0.1") ~target_ip:b.vnh
        in
        Alcotest.(check bool) "flood after GC" true
          (Supercharger.Arp_responder.handle groups req
          = Supercharger.Arp_responder.Flood));
    Alcotest.test_case "duplicate ARP for a recycled VNH binds the new group"
      `Quick (fun () ->
        (* Destroy a group, let a different next-hop set recycle its
           (VNH, VMAC) pair, then ask twice: both replies must carry the
           recycled VMAC and the registry must resolve the VNH to the
           NEW membership — a stale binding here would send traffic to
           the dead group's peers. *)
        let groups = make_groups () in
        let old =
          Supercharger.Backup_group.find_or_create groups
            [ip "10.0.0.2"; ip "10.0.0.3"]
        in
        Supercharger.Backup_group.acquire groups old;
        Supercharger.Backup_group.release groups old;
        Alcotest.(check bool) "destroyed" true
          (Supercharger.Backup_group.destroy groups old);
        let fresh =
          Supercharger.Backup_group.find_or_create groups
            [ip "10.0.0.4"; ip "10.0.0.5"]
        in
        Alcotest.(check string) "vnh recycled (FIFO)"
          (Net.Ipv4.to_string old.vnh) (Net.Ipv4.to_string fresh.vnh);
        Alcotest.(check string) "vmac recycled with it"
          (Net.Mac.to_string old.vmac) (Net.Mac.to_string fresh.vmac);
        let req =
          Net.Arp.request ~sender_mac:(mac "00:aa:00:00:00:01")
            ~sender_ip:(ip "10.0.0.1") ~target_ip:fresh.vnh
        in
        let answer () =
          match Supercharger.Arp_responder.handle groups req with
          | Supercharger.Arp_responder.Reply r ->
            Net.Mac.to_string r.Net.Arp.sender_mac
          | _ -> Alcotest.fail "expected a reply for the recycled VNH"
        in
        Alcotest.(check string) "first query" (Net.Mac.to_string fresh.vmac)
          (answer ());
        Alcotest.(check string) "duplicate query agrees"
          (Net.Mac.to_string fresh.vmac) (answer ());
        match Supercharger.Backup_group.find_by_vnh groups fresh.vnh with
        | Some b ->
          Alcotest.(check (list string)) "vnh resolves to the new members"
            ["10.0.0.4"; "10.0.0.5"]
            (List.map Net.Ipv4.to_string b.next_hops)
        | None -> Alcotest.fail "recycled vnh unknown to the registry");
  ]

let peer_info name port =
  {
    Supercharger.Provisioner.pi_ip = ip name;
    pi_mac = mac (Fmt.str "00:bb:00:00:00:0%d" port);
    pi_port = port;
  }

let provisioner_tests =
  [
    Alcotest.test_case "install points at the first alive member" `Quick (fun () ->
        let sent = ref [] in
        let p = Supercharger.Provisioner.create ~send:(fun m -> sent := m :: !sent) () in
        Supercharger.Provisioner.declare_peer p (peer_info "10.0.0.2" 2);
        Supercharger.Provisioner.declare_peer p (peer_info "10.0.0.3" 3);
        let groups = make_groups () in
        let b = Supercharger.Backup_group.find_or_create groups [ip "10.0.0.2"; ip "10.0.0.3"] in
        Supercharger.Provisioner.install_group p b;
        Alcotest.(check (option string)) "selected primary" (Some "10.0.0.2")
          (Option.map Net.Ipv4.to_string (Supercharger.Provisioner.selected p b));
        match !sent with
        | [Openflow.Message.Flow_mod fm] ->
          Alcotest.(check bool) "matches vmac" true
            (Openflow.Ofmatch.equal fm.Openflow.Flow_table.fm_match
               (Openflow.Ofmatch.dl_dst b.vmac));
          Alcotest.(check bool) "rewrites to primary" true
            (List.exists
               (Openflow.Action.equal (Openflow.Action.Set_dl_dst (mac "00:bb:00:00:00:02")))
               fm.Openflow.Flow_table.fm_actions)
        | _ -> Alcotest.fail "expected one flow mod");
    Alcotest.test_case "Listing 2: fail_peer rewrites affected groups once" `Quick
      (fun () ->
        let sent = ref 0 in
        let p = Supercharger.Provisioner.create ~send:(fun _ -> incr sent) () in
        List.iter
          (fun (name, port) -> Supercharger.Provisioner.declare_peer p (peer_info name port))
          [("10.0.0.2", 2); ("10.0.0.3", 3); ("10.0.0.4", 4)];
        let groups = make_groups () in
        let b1 = Supercharger.Backup_group.find_or_create groups [ip "10.0.0.2"; ip "10.0.0.3"] in
        let b2 = Supercharger.Backup_group.find_or_create groups [ip "10.0.0.2"; ip "10.0.0.4"] in
        let b3 = Supercharger.Backup_group.find_or_create groups [ip "10.0.0.3"; ip "10.0.0.2"] in
        List.iter (Supercharger.Provisioner.install_group p) [b1; b2; b3];
        sent := 0;
        let rewritten =
          Supercharger.Provisioner.fail_peer p (ip "10.0.0.2")
            (Supercharger.Backup_group.with_member groups (ip "10.0.0.2"))
        in
        (* b1 and b2 pointed at .2 and must be rewritten; b3 pointed at
           .3 and must not. *)
        Alcotest.(check int) "two rewrites" 2 rewritten;
        Alcotest.(check int) "two messages" 2 !sent;
        Alcotest.(check (option string)) "b1 now backup" (Some "10.0.0.3")
          (Option.map Net.Ipv4.to_string (Supercharger.Provisioner.selected p b1));
        Alcotest.(check (option string)) "b2 now backup" (Some "10.0.0.4")
          (Option.map Net.Ipv4.to_string (Supercharger.Provisioner.selected p b2));
        Alcotest.(check (option string)) "b3 untouched" (Some "10.0.0.3")
          (Option.map Net.Ipv4.to_string (Supercharger.Provisioner.selected p b3)));
    Alcotest.test_case "all members dead installs a drop rule" `Quick (fun () ->
        let last = ref None in
        let p = Supercharger.Provisioner.create ~send:(fun m -> last := Some m) () in
        Supercharger.Provisioner.declare_peer p (peer_info "10.0.0.2" 2);
        Supercharger.Provisioner.declare_peer p (peer_info "10.0.0.3" 3);
        let groups = make_groups () in
        let b = Supercharger.Backup_group.find_or_create groups [ip "10.0.0.2"; ip "10.0.0.3"] in
        Supercharger.Provisioner.install_group p b;
        ignore (Supercharger.Provisioner.fail_peer p (ip "10.0.0.2") [b]);
        ignore (Supercharger.Provisioner.fail_peer p (ip "10.0.0.3") [b]);
        (match !last with
        | Some (Openflow.Message.Flow_mod fm) ->
          Alcotest.(check (list int)) "drop" []
            (List.filter_map
               (function Openflow.Action.Output p -> Some p | _ -> None)
               fm.Openflow.Flow_table.fm_actions)
        | _ -> Alcotest.fail "expected flow mod");
        Alcotest.(check (option string)) "nothing selected" None
          (Option.map Net.Ipv4.to_string (Supercharger.Provisioner.selected p b)));
    Alcotest.test_case "revive_peer makes it eligible again" `Quick (fun () ->
        let p = Supercharger.Provisioner.create ~send:(fun _ -> ()) () in
        Supercharger.Provisioner.declare_peer p (peer_info "10.0.0.2" 2);
        ignore (Supercharger.Provisioner.fail_peer p (ip "10.0.0.2") []);
        Alcotest.(check bool) "dead" false (Supercharger.Provisioner.is_alive p (ip "10.0.0.2"));
        Supercharger.Provisioner.revive_peer p (ip "10.0.0.2");
        Alcotest.(check bool) "alive" true (Supercharger.Provisioner.is_alive p (ip "10.0.0.2")));
    Alcotest.test_case "undeclared peer is rejected" `Quick (fun () ->
        let p = Supercharger.Provisioner.create ~send:(fun _ -> ()) () in
        let groups = make_groups () in
        let b = Supercharger.Backup_group.find_or_create groups [ip "10.0.0.2"; ip "10.0.0.3"] in
        Alcotest.(check bool) "raises" true
          (try
             Supercharger.Provisioner.install_group p b;
             false
           with Invalid_argument _ -> true));
  ]


(* --- FIB cache (S1: switch as a table extension) ------------------------ *)

let cache_peer octet port =
  {
    Supercharger.Provisioner.pi_ip = ip (Fmt.str "10.0.0.%d" octet);
    pi_mac = mac (Fmt.str "00:bb:00:00:00:0%d" octet);
    pi_port = port;
  }

let make_cache ?aggregate_len () =
  let table = Openflow.Flow_table.create () in
  let cache =
    Supercharger.Fib_cache.create ?aggregate_len
      ~allocator:(Supercharger.Vnh.create ())
      ~send:(function
        | Openflow.Message.Flow_mod fm -> Openflow.Flow_table.apply table fm
        | _ -> ())
      ()
  in
  Supercharger.Fib_cache.declare_peer cache (cache_peer 2 2);
  Supercharger.Fib_cache.declare_peer cache (cache_peer 3 3);
  (cache, table)

let switch_port_for table cache dst =
  let frame =
    Net.Ethernet.make ~src:(mac "00:aa:00:00:00:01")
      ~dst:(Supercharger.Fib_cache.vmac cache)
      (Net.Ethernet.Ipv4
         (Net.Ipv4_packet.udp ~src:(ip "192.168.0.100") ~dst ~src_port:1 ~dst_port:2 "x"))
  in
  match Openflow.Flow_table.lookup table { Openflow.Ofmatch.arrival_port = 0; frame } with
  | Some entry ->
    List.find_map
      (function Openflow.Action.Output p -> Some p | _ -> None)
      entry.Openflow.Flow_table.actions
  | None -> None

let fib_cache_tests =
  [
    Alcotest.test_case "first specific announces its aggregate" `Quick (fun () ->
        let cache, _ = make_cache () in
        (match Supercharger.Fib_cache.route cache (pfx "1.2.3.0/24") (Some (ip "10.0.0.2")) with
        | [Supercharger.Fib_cache.Announce_aggregate agg] ->
          Alcotest.(check string) "cover" "1.0.0.0/8" (Net.Prefix.to_string agg)
        | _ -> Alcotest.fail "expected one announce");
        (* Second specific under the same cover is silent. *)
        Alcotest.(check int) "silent" 0
          (List.length
             (Supercharger.Fib_cache.route cache (pfx "1.9.0.0/16") (Some (ip "10.0.0.3")))));
    Alcotest.test_case "last removal withdraws the aggregate" `Quick (fun () ->
        let cache, _ = make_cache () in
        ignore (Supercharger.Fib_cache.route cache (pfx "1.2.3.0/24") (Some (ip "10.0.0.2")));
        ignore (Supercharger.Fib_cache.route cache (pfx "1.9.0.0/16") (Some (ip "10.0.0.3")));
        Alcotest.(check int) "still held" 0
          (List.length (Supercharger.Fib_cache.route cache (pfx "1.2.3.0/24") None));
        match Supercharger.Fib_cache.route cache (pfx "1.9.0.0/16") None with
        | [Supercharger.Fib_cache.Withdraw_aggregate agg] ->
          Alcotest.(check string) "cover" "1.0.0.0/8" (Net.Prefix.to_string agg)
        | _ -> Alcotest.fail "expected one withdraw");
    Alcotest.test_case "switch rules implement longest-prefix match" `Quick (fun () ->
        let cache, table = make_cache () in
        ignore (Supercharger.Fib_cache.route cache (pfx "1.0.0.0/8") (Some (ip "10.0.0.2")));
        ignore (Supercharger.Fib_cache.route cache (pfx "1.2.0.0/16") (Some (ip "10.0.0.3")));
        Alcotest.(check (option int)) "specific wins" (Some 3)
          (switch_port_for table cache (ip "1.2.9.9"));
        Alcotest.(check (option int)) "covering entry" (Some 2)
          (switch_port_for table cache (ip "1.3.0.1"));
        Alcotest.(check (option int)) "outside" None
          (switch_port_for table cache (ip "2.0.0.1"));
        Alcotest.(check (option string)) "resolve agrees" (Some "10.0.0.3")
          (Option.map Net.Ipv4.to_string (Supercharger.Fib_cache.resolve cache (ip "1.2.9.9"))));
    Alcotest.test_case "re-routing a specific keeps the refcounts right" `Quick
      (fun () ->
        let cache, table = make_cache () in
        ignore (Supercharger.Fib_cache.route cache (pfx "1.2.0.0/16") (Some (ip "10.0.0.2")));
        Alcotest.(check int) "silent re-route" 0
          (List.length
             (Supercharger.Fib_cache.route cache (pfx "1.2.0.0/16") (Some (ip "10.0.0.3"))));
        Alcotest.(check (option int)) "rule updated" (Some 3)
          (switch_port_for table cache (ip "1.2.0.1"));
        Alcotest.(check int) "one aggregate" 1 (Supercharger.Fib_cache.aggregates cache));
    Alcotest.test_case "re-route reaches a live switch as a rule update" `Quick
      (fun () ->
        (* End to end through the real control channel: the cache's
           flow mods ride a connected controller into a Switch, and a
           re-route must leave one rule behind, now forwarding to the
           new peer's MAC and port. The stale-rule bug this guards
           against sent a second Add instead of a Modify_strict. *)
        let e = Sim.Engine.create () in
        let sw = Openflow.Switch.create e ~n_ports:4 () in
        let send = Openflow.Switch.connect_controller sw (fun _ -> ()) in
        let cache =
          Supercharger.Fib_cache.create
            ~allocator:(Supercharger.Vnh.create ())
            ~send ()
        in
        Supercharger.Fib_cache.declare_peer cache (cache_peer 2 2);
        Supercharger.Fib_cache.declare_peer cache (cache_peer 3 3);
        ignore (Supercharger.Fib_cache.route cache (pfx "1.2.0.0/16") (Some (ip "10.0.0.2")));
        Sim.Engine.run e;
        let size_after_first = Openflow.Flow_table.size (Openflow.Switch.table sw) in
        ignore (Supercharger.Fib_cache.route cache (pfx "1.2.0.0/16") (Some (ip "10.0.0.3")));
        Sim.Engine.run e;
        Alcotest.(check int) "table cardinality unchanged" size_after_first
          (Openflow.Flow_table.size (Openflow.Switch.table sw));
        let frame =
          Net.Ethernet.make ~src:(mac "00:aa:00:00:00:01")
            ~dst:(Supercharger.Fib_cache.vmac cache)
            (Net.Ethernet.Ipv4
               (Net.Ipv4_packet.udp ~src:(ip "192.168.0.100") ~dst:(ip "1.2.0.1")
                  ~src_port:1 ~dst_port:2 "x"))
        in
        match Openflow.Switch.resolve sw ~port:0 frame with
        | Openflow.Switch.Forward (rewritten, ports) ->
          Alcotest.(check (list int)) "new peer's port" [3] ports;
          Alcotest.(check string) "new peer's mac" "00:bb:00:00:00:03"
            (Net.Mac.to_string rewritten.Net.Ethernet.dst)
        | Openflow.Switch.Punt | Openflow.Switch.Miss
        | Openflow.Switch.Blackhole ->
          Alcotest.fail "expected the packet to forward");
    Alcotest.test_case "compression factor on an internet-shaped table" `Quick
      (fun () ->
        let cache, _ = make_cache () in
        let entries = Workloads.Rib_gen.generate ~seed:5L ~count:3_000 in
        Array.iter
          (fun (e : Workloads.Rib_gen.entry) ->
            ignore (Supercharger.Fib_cache.route cache e.prefix (Some (ip "10.0.0.2"))))
          entries;
        Alcotest.(check int) "specifics" 3_000 (Supercharger.Fib_cache.specifics cache);
        Alcotest.(check bool)
          (Fmt.str "compression > 50x (%.0f)" (Supercharger.Fib_cache.compression_factor cache))
          true
          (Supercharger.Fib_cache.compression_factor cache > 50.0));
    Alcotest.test_case "short prefixes are their own aggregate" `Quick (fun () ->
        let cache, _ = make_cache () in
        match Supercharger.Fib_cache.route cache (pfx "9.0.0.0/6") (Some (ip "10.0.0.2")) with
        | [Supercharger.Fib_cache.Announce_aggregate agg] ->
          Alcotest.(check string) "itself" "8.0.0.0/6" (Net.Prefix.to_string agg)
        | _ -> Alcotest.fail "expected announce");
    Alcotest.test_case "undeclared peer rejected" `Quick (fun () ->
        let cache, _ = make_cache () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Supercharger.Fib_cache.route cache (pfx "1.0.0.0/24") (Some (ip "10.0.0.9")));
             false
           with Invalid_argument _ -> true));
  ]

(* --- load balancer (S1: overriding the router's weak hash) -------------- *)

let make_lb () =
  let table = Openflow.Flow_table.create () in
  let lb =
    Supercharger.Load_balancer.create
      ~allocator:(Supercharger.Vnh.create ())
      ~send:(function
        | Openflow.Message.Flow_mod fm -> Openflow.Flow_table.apply table fm
        | _ -> ())
      ()
  in
  List.iter (Supercharger.Load_balancer.add_target lb) [cache_peer 2 2; cache_peer 3 3];
  (lb, table)

let lb_key i =
  {
    Supercharger.Load_balancer.fk_src = ip "192.168.0.100";
    fk_dst = ip (Fmt.str "1.0.%d.16" i);
    (* all destinations share low byte 16: the static hash collapses *)
    fk_src_port = 5001;
    fk_dst_port = 9000 + i;
  }

let lb_tests =
  [
    Alcotest.test_case "least-loaded assignment balances perfectly" `Quick (fun () ->
        let lb, _ = make_lb () in
        for i = 0 to 9 do
          ignore (Supercharger.Load_balancer.assign lb (lb_key i))
        done;
        Alcotest.(check int) "five each" 5 (Supercharger.Load_balancer.load lb (ip "10.0.0.2"));
        Alcotest.(check int) "five each" 5 (Supercharger.Load_balancer.load lb (ip "10.0.0.3"));
        Alcotest.(check (float 0.001)) "imbalance 1.0" 1.0
          (Supercharger.Load_balancer.imbalance lb));
    Alcotest.test_case "assignment is sticky" `Quick (fun () ->
        let lb, _ = make_lb () in
        let first = Supercharger.Load_balancer.assign lb (lb_key 0) in
        let again = Supercharger.Load_balancer.assign lb (lb_key 0) in
        Alcotest.(check string) "same" (Net.Ipv4.to_string first) (Net.Ipv4.to_string again);
        Alcotest.(check int) "counted once" 1
          (Supercharger.Load_balancer.load lb first));
    Alcotest.test_case "the static hash collapses skewed traffic" `Quick (fun () ->
        (* Same low destination byte -> every flow lands in one bucket. *)
        let buckets =
          List.init 10 (fun i ->
              Supercharger.Load_balancer.static_hash ~n_targets:2 (lb_key i))
        in
        Alcotest.(check (list int)) "all same bucket" (List.init 10 (fun _ -> 0)) buckets);
    Alcotest.test_case "per-flow rule matches only its flow" `Quick (fun () ->
        let lb, table = make_lb () in
        let target = Supercharger.Load_balancer.assign lb (lb_key 0) in
        let frame dst_port =
          Net.Ethernet.make ~src:(mac "00:aa:00:00:00:01")
            ~dst:(Supercharger.Load_balancer.vmac lb)
            (Net.Ethernet.Ipv4
               (Net.Ipv4_packet.udp ~src:(ip "192.168.0.100") ~dst:(ip "1.0.0.16")
                  ~src_port:5001 ~dst_port "x"))
        in
        let port_for f =
          match
            Openflow.Flow_table.lookup table { Openflow.Ofmatch.arrival_port = 0; frame = f }
          with
          | Some e -> e.Openflow.Flow_table.priority
          | None -> -1
        in
        Alcotest.(check int) "pinned flow hits the exact rule" 300 (port_for (frame 9000));
        (* A different flow falls to the default rule. *)
        Alcotest.(check int) "other flow hits default" 299 (port_for (frame 9999));
        Alcotest.(check bool) "assign returned a target" true
          (List.mem (Net.Ipv4.to_string target) ["10.0.0.2"; "10.0.0.3"]));
    Alcotest.test_case "no targets rejected" `Quick (fun () ->
        let lb =
          Supercharger.Load_balancer.create
            ~allocator:(Supercharger.Vnh.create ())
            ~send:(fun _ -> ())
            ()
        in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Supercharger.Load_balancer.assign lb (lb_key 0));
             false
           with Invalid_argument _ -> true));
  ]

let suite =
  [
    ("supercharger.vnh", vnh_tests);
    ("supercharger.backup_group", backup_group_tests);
    ("supercharger.algorithm", algorithm_tests);
    ("supercharger.arp_responder", arp_responder_tests);
    ("supercharger.provisioner", provisioner_tests);
    ("supercharger.fib_cache", fib_cache_tests);
    ("supercharger.load_balancer", lb_tests);
  ]
