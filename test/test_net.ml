(* Tests for addresses, prefixes, the LPM trie, frames, the wire codec
   and the link model. *)

open Net

let ipv4 = Alcotest.testable Ipv4.pp Ipv4.equal
let mac = Alcotest.testable Mac.pp Mac.equal
let prefix = Alcotest.testable Prefix.pp Prefix.equal
let frame = Alcotest.testable Ethernet.pp Ethernet.equal

let arbitrary_ipv4 =
  QCheck.map ~rev:Ipv4.to_int32 Ipv4.of_int32 QCheck.(map Int32.of_int int)

let arbitrary_prefix =
  QCheck.map
    (fun (addr, len) -> Prefix.make (Ipv4.of_int32 addr) (len mod 33))
    QCheck.(pair (map Int32.of_int int) (0 -- 32))

let ipv4_tests =
  [
    Alcotest.test_case "octets round-trip" `Quick (fun () ->
        let a = Ipv4.of_octets 203 0 113 1 in
        let w, x, y, z = Ipv4.to_octets a in
        Alcotest.(check (list int)) "octets" [203; 0; 113; 1] [w; x; y; z]);
    Alcotest.test_case "string parse and print" `Quick (fun () ->
        Alcotest.check ipv4 "parse" (Ipv4.of_octets 10 0 0 1)
          (Ipv4.of_string_exn "10.0.0.1");
        Alcotest.(check string) "print" "255.255.255.255" (Ipv4.to_string Ipv4.broadcast));
    Alcotest.test_case "rejects malformed strings" `Quick (fun () ->
        List.iter
          (fun s ->
            match Ipv4.of_string s with
            | Ok _ -> Alcotest.failf "accepted %S" s
            | Error _ -> ())
          ["1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "a.b.c.d"; "01.2.3.4"; ""; "1..2.3"; "-1.2.3.4"]);
    Alcotest.test_case "unsigned comparison" `Quick (fun () ->
        let low = Ipv4.of_octets 1 0 0 0 and high = Ipv4.of_octets 200 0 0 0 in
        Alcotest.(check bool) "1.0.0.0 < 200.0.0.0" true (Ipv4.compare low high < 0);
        Alcotest.(check bool) "broadcast greatest" true
          (Ipv4.compare high Ipv4.broadcast < 0));
    Alcotest.test_case "succ / add / diff wrap" `Quick (fun () ->
        Alcotest.check ipv4 "succ" (Ipv4.of_octets 1 0 1 0)
          (Ipv4.succ (Ipv4.of_octets 1 0 0 255));
        Alcotest.check ipv4 "add 256" (Ipv4.of_octets 1 0 1 0)
          (Ipv4.add (Ipv4.of_octets 1 0 0 0) 256);
        Alcotest.(check int) "diff" 256
          (Ipv4.diff (Ipv4.of_octets 1 0 1 0) (Ipv4.of_octets 1 0 0 0));
        Alcotest.check ipv4 "wrap" Ipv4.any (Ipv4.succ Ipv4.broadcast));
    Alcotest.test_case "bit indexing is MSB-first" `Quick (fun () ->
        let a = Ipv4.of_octets 128 0 0 1 in
        Alcotest.(check bool) "bit 0" true (Ipv4.bit a 0);
        Alcotest.(check bool) "bit 1" false (Ipv4.bit a 1);
        Alcotest.(check bool) "bit 31" true (Ipv4.bit a 31));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"ipv4 string round-trip" ~count:500 arbitrary_ipv4
         (fun a ->
           match Ipv4.of_string (Ipv4.to_string a) with
           | Ok b -> Ipv4.equal a b
           | Error _ -> false));
  ]

let validation_tests =
  [
    Alcotest.test_case "of_octets rejects out-of-range bytes" `Quick (fun () ->
        List.iter
          (fun (a, b, c, d) ->
            Alcotest.(check bool) "raises" true
              (try
                 ignore (Ipv4.of_octets a b c d);
                 false
               with Invalid_argument _ -> true))
          [(256, 0, 0, 0); (-1, 0, 0, 0); (0, 0, 0, 999)]);
    Alcotest.test_case "Prefix.nth rejects out-of-range indices" `Quick (fun () ->
        let p = Prefix.v "10.0.0.0/30" in
        List.iter
          (fun i ->
            Alcotest.(check bool) "raises" true
              (try
                 ignore (Prefix.nth p i);
                 false
               with Invalid_argument _ -> true))
          [-1; 4; 100]);
    Alcotest.test_case "Prefix.make rejects bad lengths" `Quick (fun () ->
        List.iter
          (fun len ->
            Alcotest.(check bool) "raises" true
              (try
                 ignore (Prefix.make Ipv4.any len);
                 false
               with Invalid_argument _ -> true))
          [-1; 33]);
    Alcotest.test_case "Mac.of_bytes validates shape" `Quick (fun () ->
        List.iter
          (fun bytes ->
            Alcotest.(check bool) "raises" true
              (try
                 ignore (Mac.of_bytes bytes);
                 false
               with Invalid_argument _ -> true))
          [[|1; 2; 3|]; [|1; 2; 3; 4; 5; 256|]; [||]]);
    Alcotest.test_case "Udp.make validates ports" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Udp.make ~src_port:(-1) ~dst_port:0 ~payload:"");
             false
           with Invalid_argument _ -> true);
        Alcotest.(check bool) "raises high" true
          (try
             ignore (Udp.make ~src_port:0 ~dst_port:65536 ~payload:"");
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "Ipv4_packet.make validates ttl; decrement floors" `Quick
      (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Ipv4_packet.make ~ttl:300 ~src:Ipv4.any ~dst:Ipv4.any
                  (Ipv4_packet.Raw { protocol = 1; body = "" }));
             false
           with Invalid_argument _ -> true);
        let p =
          Ipv4_packet.make ~ttl:1 ~src:Ipv4.any ~dst:Ipv4.any
            (Ipv4_packet.Raw { protocol = 1; body = "" })
        in
        Alcotest.(check bool) "ttl 1 dies" true (Ipv4_packet.decrement_ttl p = None));
  ]

let mac_tests =
  [
    Alcotest.test_case "string parse and print" `Quick (fun () ->
        let m = Mac.of_string_exn "00:ff:00:00:00:01" in
        Alcotest.(check string) "print" "00:ff:00:00:00:01" (Mac.to_string m));
    Alcotest.test_case "rejects malformed strings" `Quick (fun () ->
        List.iter
          (fun s ->
            match Mac.of_string s with
            | Ok _ -> Alcotest.failf "accepted %S" s
            | Error _ -> ())
          ["00:ff:00:00:00"; "00:ff:00:00:00:01:02"; "zz:ff:00:00:00:01"; ""; "0:0:0:0:0:1x"]);
    Alcotest.test_case "of_int64 masks to 48 bits" `Quick (fun () ->
        Alcotest.check mac "masked" (Mac.of_int64 1L)
          (Mac.of_int64 0x1_0000_0000_0001L));
    Alcotest.test_case "broadcast" `Quick (fun () ->
        Alcotest.(check bool) "is" true (Mac.is_broadcast Mac.broadcast);
        Alcotest.(check bool) "is not" false (Mac.is_broadcast Mac.zero));
    Alcotest.test_case "bytes round-trip" `Quick (fun () ->
        let m = Mac.of_bytes [|1; 2; 3; 4; 5; 6|] in
        Alcotest.(check (array int)) "bytes" [|1; 2; 3; 4; 5; 6|] (Mac.to_bytes m));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"mac string round-trip" ~count:300
         QCheck.(map (fun i -> Mac.of_int64 (Int64.of_int (abs i))) int)
         (fun m ->
           match Mac.of_string (Mac.to_string m) with
           | Ok m' -> Mac.equal m m'
           | Error _ -> false));
  ]

let prefix_tests =
  [
    Alcotest.test_case "canonicalises host bits" `Quick (fun () ->
        let p = Prefix.make (Ipv4.of_octets 10 1 2 3) 16 in
        Alcotest.check ipv4 "network" (Ipv4.of_octets 10 1 0 0) (Prefix.network p);
        Alcotest.check prefix "equal to canonical" (Prefix.v "10.1.0.0/16") p);
    Alcotest.test_case "parse / print" `Quick (fun () ->
        Alcotest.(check string) "print" "1.0.0.0/24" (Prefix.to_string (Prefix.v "1.0.0.0/24"));
        List.iter
          (fun s ->
            match Prefix.of_string s with
            | Ok _ -> Alcotest.failf "accepted %S" s
            | Error _ -> ())
          ["1.0.0.0"; "1.0.0.0/33"; "1.0.0.0/-1"; "x/24"; "1.0.0.0/"]);
    Alcotest.test_case "membership" `Quick (fun () ->
        let p = Prefix.v "192.168.4.0/22" in
        Alcotest.(check bool) "first" true (Prefix.mem (Ipv4.of_octets 192 168 4 0) p);
        Alcotest.(check bool) "last" true (Prefix.mem (Ipv4.of_octets 192 168 7 255) p);
        Alcotest.(check bool) "below" false (Prefix.mem (Ipv4.of_octets 192 168 3 255) p);
        Alcotest.(check bool) "above" false (Prefix.mem (Ipv4.of_octets 192 168 8 0) p);
        Alcotest.(check bool) "default route holds all" true
          (Prefix.mem Ipv4.broadcast Prefix.default_route));
    Alcotest.test_case "subset" `Quick (fun () ->
        Alcotest.(check bool) "strict" true
          (Prefix.subset (Prefix.v "10.0.1.0/24") (Prefix.v "10.0.0.0/16"));
        Alcotest.(check bool) "self" true
          (Prefix.subset (Prefix.v "10.0.0.0/16") (Prefix.v "10.0.0.0/16"));
        Alcotest.(check bool) "reverse" false
          (Prefix.subset (Prefix.v "10.0.0.0/16") (Prefix.v "10.0.1.0/24")));
    Alcotest.test_case "first / last / size / nth" `Quick (fun () ->
        let p = Prefix.v "10.0.0.0/30" in
        Alcotest.check ipv4 "first" (Ipv4.of_octets 10 0 0 0) (Prefix.first p);
        Alcotest.check ipv4 "last" (Ipv4.of_octets 10 0 0 3) (Prefix.last p);
        Alcotest.(check int) "size" 4 (Prefix.size p);
        Alcotest.check ipv4 "nth" (Ipv4.of_octets 10 0 0 2) (Prefix.nth p 2);
        Alcotest.(check int) "host size" 1 (Prefix.size (Prefix.v "10.0.0.1/32")));
    Alcotest.test_case "ordering: address then length" `Quick (fun () ->
        Alcotest.(check bool) "shorter first" true
          (Prefix.compare (Prefix.v "10.0.0.0/8") (Prefix.v "10.0.0.0/16") < 0);
        Alcotest.(check bool) "by address" true
          (Prefix.compare (Prefix.v "9.0.0.0/8") (Prefix.v "10.0.0.0/8") < 0));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"prefix string round-trip" ~count:500 arbitrary_prefix
         (fun p ->
           match Prefix.of_string (Prefix.to_string p) with
           | Ok p' -> Prefix.equal p p'
           | Error _ -> false));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"network address is member" ~count:500 arbitrary_prefix
         (fun p -> Prefix.mem (Prefix.network p) p));
  ]

let lpm_tests =
  let naive_lookup bindings addr =
    List.fold_left
      (fun best (p, v) ->
        if Prefix.mem addr p then
          match best with
          | Some (bp, _) when Prefix.length bp >= Prefix.length p -> best
          | _ -> Some (p, v)
        else best)
      None bindings
  in
  [
    Alcotest.test_case "longest match wins" `Quick (fun () ->
        let t = Lpm.create () in
        Lpm.insert t (Prefix.v "10.0.0.0/8") "eight";
        Lpm.insert t (Prefix.v "10.1.0.0/16") "sixteen";
        Lpm.insert t (Prefix.v "10.1.2.0/24") "twentyfour";
        let look a = Option.map snd (Lpm.lookup t (Ipv4.of_string_exn a)) in
        Alcotest.(check (option string)) "most specific" (Some "twentyfour") (look "10.1.2.3");
        Alcotest.(check (option string)) "mid" (Some "sixteen") (look "10.1.3.1");
        Alcotest.(check (option string)) "least" (Some "eight") (look "10.2.0.1");
        Alcotest.(check (option string)) "miss" None (look "11.0.0.1"));
    Alcotest.test_case "default route catches everything" `Quick (fun () ->
        let t = Lpm.create () in
        Lpm.insert t Prefix.default_route "default";
        Alcotest.(check (option string)) "any" (Some "default")
          (Option.map snd (Lpm.lookup t (Ipv4.of_octets 8 8 8 8))));
    Alcotest.test_case "insert replaces; remove deletes exactly" `Quick (fun () ->
        let t = Lpm.create () in
        Lpm.insert t (Prefix.v "10.0.0.0/24") 1;
        Lpm.insert t (Prefix.v "10.0.0.0/24") 2;
        Alcotest.(check int) "cardinal" 1 (Lpm.cardinal t);
        Alcotest.(check (option int)) "replaced" (Some 2)
          (Lpm.find_exact t (Prefix.v "10.0.0.0/24"));
        Lpm.remove t (Prefix.v "10.0.0.0/25");
        Alcotest.(check int) "noop remove" 1 (Lpm.cardinal t);
        Lpm.remove t (Prefix.v "10.0.0.0/24");
        Alcotest.(check int) "gone" 0 (Lpm.cardinal t);
        Alcotest.(check bool) "empty" true (Lpm.is_empty t));
    Alcotest.test_case "remove keeps covering prefix reachable" `Quick (fun () ->
        let t = Lpm.create () in
        Lpm.insert t (Prefix.v "10.0.0.0/8") "outer";
        Lpm.insert t (Prefix.v "10.1.0.0/16") "inner";
        Lpm.remove t (Prefix.v "10.1.0.0/16");
        Alcotest.(check (option string)) "falls back" (Some "outer")
          (Option.map snd (Lpm.lookup t (Ipv4.of_octets 10 1 0 1))));
    Alcotest.test_case "iter visits in trie order" `Quick (fun () ->
        let t = Lpm.create () in
        List.iter (fun s -> Lpm.insert t (Prefix.v s) s)
          ["10.0.0.0/8"; "1.0.0.0/8"; "10.1.0.0/16"];
        Alcotest.(check (list string)) "order" ["1.0.0.0/8"; "10.0.0.0/8"; "10.1.0.0/16"]
          (List.map (fun (p, _) -> Prefix.to_string p) (Lpm.to_list t)));
    Alcotest.test_case "zero-length prefix bound at root" `Quick (fun () ->
        let t = Lpm.create () in
        Lpm.insert t Prefix.default_route 0;
        Lpm.insert t (Prefix.v "128.0.0.0/1") 1;
        Alcotest.(check (option int)) "specific" (Some 1)
          (Option.map snd (Lpm.lookup t (Ipv4.of_octets 200 0 0 1)));
        Alcotest.(check (option int)) "default" (Some 0)
          (Option.map snd (Lpm.lookup t (Ipv4.of_octets 1 0 0 1))));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"lpm agrees with naive scan" ~count:200
         QCheck.(pair (small_list (pair arbitrary_prefix small_int)) (small_list arbitrary_ipv4))
         (fun (bindings, addrs) ->
           let t = Lpm.create () in
           (* Later bindings replace earlier ones for equal prefixes, so
              normalise the reference the same way. *)
           List.iter (fun (p, v) -> Lpm.insert t p v) bindings;
           let dedup =
             List.fold_left
               (fun acc (p, v) ->
                 (p, v) :: List.filter (fun (q, _) -> not (Prefix.equal p q)) acc)
               [] bindings
           in
           List.for_all
             (fun a ->
               let expected = naive_lookup dedup a in
               let got = Lpm.lookup t a in
               match expected, got with
               | None, None -> true
               | Some (p, v), Some (p', v') -> Prefix.equal p p' && v = v'
               | _ -> false)
             addrs));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"insert then remove restores emptiness" ~count:200
         QCheck.(small_list arbitrary_prefix)
         (fun ps ->
           let t = Lpm.create () in
           List.iter (fun p -> Lpm.insert t p ()) ps;
           List.iter (fun p -> Lpm.remove t p) ps;
           Lpm.is_empty t));
  ]

let flat_fib_tests =
  let pfx = Prefix.v in
  let ip = Ipv4.of_string_exn in
  let look t a = Flat_fib.lookup_value t (ip a) in
  (* A pool spanning every level of the 16/8/8 layout, plus the churn
     pathologies named in the issue: a default route, boundary lengths
     on both sides of each stride, and adjacent /32s. *)
  let pool =
    [|
      "0.0.0.0/0"; "10.0.0.0/8"; "10.0.0.0/15"; "10.0.0.0/16"; "10.0.0.0/17";
      "10.0.0.0/20"; "10.0.0.0/24"; "10.0.0.0/25"; "10.0.0.0/28";
      "10.0.0.0/31"; "10.0.0.4/32"; "10.0.0.5/32"; "10.0.1.0/24";
      "10.128.0.0/9"; "172.16.0.0/12"; "192.168.0.0/16"; "192.168.1.0/24";
      "192.168.1.128/25"; "255.255.255.255/32";
    |]
  in
  let probe_addrs =
    [
      "0.0.0.1"; "9.255.255.255"; "10.0.0.0"; "10.0.0.1"; "10.0.0.4";
      "10.0.0.5"; "10.0.0.6"; "10.0.0.15"; "10.0.0.127"; "10.0.0.128";
      "10.0.0.255"; "10.0.1.1"; "10.0.2.1"; "10.1.255.255"; "10.128.0.1";
      "10.200.3.4"; "172.16.9.9"; "172.32.0.1"; "192.168.0.7";
      "192.168.1.5"; "192.168.1.200"; "192.168.2.1"; "255.255.255.255";
    ]
  in
  let agree msg oracle t =
    List.iter
      (fun a ->
        let addr = ip a in
        let expect = Option.map snd (Lpm.lookup oracle addr) in
        Alcotest.(check (option int))
          (Printf.sprintf "%s: lookup_value %s" msg a)
          expect
          (Flat_fib.lookup_value t addr);
        Alcotest.(check (option int))
          (Printf.sprintf "%s: lookup %s" msg a)
          expect
          (Option.map snd (Flat_fib.lookup t addr)))
      probe_addrs
  in
  [
    Alcotest.test_case "longest match across all three levels" `Quick (fun () ->
        let t = Flat_fib.create () in
        Flat_fib.insert t (pfx "10.0.0.0/8") 8;
        Flat_fib.insert t (pfx "10.1.0.0/16") 16;
        Flat_fib.insert t (pfx "10.1.2.0/24") 24;
        Flat_fib.insert t (pfx "10.1.2.128/25") 25;
        Flat_fib.insert t (pfx "10.1.2.130/32") 32;
        Alcotest.(check (option int)) "host" (Some 32) (look t "10.1.2.130");
        Alcotest.(check (option int)) "/25" (Some 25) (look t "10.1.2.131");
        Alcotest.(check (option int)) "/24" (Some 24) (look t "10.1.2.1");
        Alcotest.(check (option int)) "/16" (Some 16) (look t "10.1.3.1");
        Alcotest.(check (option int)) "/8" (Some 8) (look t "10.2.0.1");
        Alcotest.(check (option int)) "miss" None (look t "11.0.0.1");
        (* lookup reconstructs the winning prefix from the stored length *)
        Alcotest.(check (option (pair prefix int)))
          "winning prefix"
          (Some (pfx "10.1.2.128/25", 25))
          (Flat_fib.lookup t (ip "10.1.2.131")));
    Alcotest.test_case "default route is the backstop" `Quick (fun () ->
        let t = Flat_fib.create () in
        Flat_fib.insert t Prefix.default_route 0;
        Flat_fib.insert t (pfx "10.0.0.0/8") 8;
        Alcotest.(check (option int)) "covered" (Some 8) (look t "10.9.9.9");
        Alcotest.(check (option int)) "everything else" (Some 0) (look t "8.8.8.8");
        Flat_fib.remove t Prefix.default_route;
        Alcotest.(check (option int)) "backstop gone" None (look t "8.8.8.8");
        Alcotest.(check (option int)) "specific survives" (Some 8) (look t "10.9.9.9"));
    Alcotest.test_case "stride boundaries /16|/17 and /24|/25" `Quick (fun () ->
        let t = Flat_fib.create () in
        Flat_fib.insert t (pfx "10.1.0.0/16") 16;
        Flat_fib.insert t (pfx "10.1.0.0/17") 17;
        Flat_fib.insert t (pfx "10.1.0.0/24") 24;
        Flat_fib.insert t (pfx "10.1.0.0/25") 25;
        Alcotest.(check (option int)) "deepest" (Some 25) (look t "10.1.0.1");
        Alcotest.(check (option int)) "upper half of /24" (Some 24) (look t "10.1.0.200");
        Alcotest.(check (option int)) "rest of /17" (Some 17) (look t "10.1.1.1");
        Alcotest.(check (option int)) "upper half of /16" (Some 16) (look t "10.1.200.1");
        Flat_fib.remove t (pfx "10.1.0.0/25");
        Alcotest.(check (option int)) "falls to /24" (Some 24) (look t "10.1.0.1");
        Flat_fib.remove t (pfx "10.1.0.0/24");
        Alcotest.(check (option int)) "falls to /17" (Some 17) (look t "10.1.0.1"));
    Alcotest.test_case "adjacent /32s stay distinct through churn" `Quick
      (fun () ->
        let t = Flat_fib.create () in
        Flat_fib.insert t (pfx "10.0.0.4/32") 4;
        Flat_fib.insert t (pfx "10.0.0.5/32") 5;
        Alcotest.(check (option int)) "four" (Some 4) (look t "10.0.0.4");
        Alcotest.(check (option int)) "five" (Some 5) (look t "10.0.0.5");
        Flat_fib.remove t (pfx "10.0.0.4/32");
        Alcotest.(check (option int)) "four gone" None (look t "10.0.0.4");
        Alcotest.(check (option int)) "five unharmed" (Some 5) (look t "10.0.0.5");
        (* remove-then-reinsert lands in a recycled slot *)
        Flat_fib.insert t (pfx "10.0.0.4/32") 44;
        Alcotest.(check (option int)) "reinserted" (Some 44) (look t "10.0.0.4");
        Alcotest.(check int) "cardinal" 2 (Flat_fib.cardinal t));
    Alcotest.test_case "removal recycles interior nodes" `Quick (fun () ->
        let t = Flat_fib.create () in
        let ps =
          List.init 8 (fun i -> Prefix.make (Ipv4.of_octets 10 i 0 0) 24)
        in
        List.iter (fun p -> Flat_fib.insert t p 1) ps;
        Alcotest.(check bool) "nodes allocated" true (Flat_fib.nodes t > 0);
        List.iter (fun p -> Flat_fib.remove t p) ps;
        Alcotest.(check int) "all recycled" 0 (Flat_fib.nodes t);
        Alcotest.(check bool) "empty" true (Flat_fib.is_empty t);
        (* the freed pool is reused, not leaked *)
        List.iter (fun p -> Flat_fib.insert t p 2) ps;
        Alcotest.(check int) "cardinal back" 8 (Flat_fib.cardinal t);
        Alcotest.(check (option int)) "reused nodes serve lookups" (Some 2)
          (look t "10.3.0.9"));
    Alcotest.test_case "to_list and find_exact mirror the trie" `Quick
      (fun () ->
        let t = Flat_fib.create () and oracle = Lpm.create () in
        Array.iteri
          (fun i s ->
            Flat_fib.insert t (pfx s) i;
            Lpm.insert oracle (pfx s) i)
          pool;
        Alcotest.(check int) "cardinal" (Lpm.cardinal oracle) (Flat_fib.cardinal t);
        Alcotest.(check bool) "same bindings" true
          (List.equal
             (fun (p, v) (q, w) -> Prefix.equal p q && Int.equal v w)
             (Lpm.to_list oracle) (Flat_fib.to_list t));
        Alcotest.(check (option int)) "find_exact hit" (Some 10)
          (Flat_fib.find_exact t (pfx "10.0.0.4/32"));
        Alcotest.(check (option int)) "find_exact miss" None
          (Flat_fib.find_exact t (pfx "10.0.0.6/32"));
        agree "full pool" oracle t);
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"flat fib agrees with the trie under churn"
         ~count:150
         QCheck.(
           small_list (pair (int_bound (Array.length pool - 1)) (option small_int)))
         (fun ops ->
           let t = Flat_fib.create () and oracle = Lpm.create () in
           List.iter
             (fun (i, op) ->
               let p = pfx pool.(i) in
               match op with
               | Some v ->
                 Flat_fib.insert t p v;
                 Lpm.insert oracle p v
               | None ->
                 Flat_fib.remove t p;
                 Lpm.remove oracle p)
             ops;
           Flat_fib.cardinal t = Lpm.cardinal oracle
           && List.equal
                (fun (p, v) (q, w) -> Prefix.equal p q && Int.equal v w)
                (Flat_fib.to_list t) (Lpm.to_list oracle)
           && List.for_all
                (fun a ->
                  let addr = ip a in
                  let expect = Option.map snd (Lpm.lookup oracle addr) in
                  Option.equal Int.equal expect (Flat_fib.lookup_value t addr)
                  && Option.equal Int.equal expect
                       (Option.map snd (Flat_fib.lookup t addr)))
                probe_addrs));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"lookup_batch agrees with lookup_value" ~count:150
         QCheck.(
           pair
             (small_list (pair (int_bound (Array.length pool - 1)) small_int))
             (list_of_size Gen.(0 -- 40) arbitrary_ipv4))
         (fun (bindings, addrs) ->
           let t = Flat_fib.create () in
           List.iter (fun (i, v) -> Flat_fib.insert t (pfx pool.(i)) v) bindings;
           let addrs = Array.of_list addrs in
           let out = Array.make (Array.length addrs) None in
           Flat_fib.lookup_batch t addrs out;
           Array.for_all2
             (fun a got ->
               Option.equal Int.equal (Flat_fib.lookup_value t a) got)
             addrs out));
    Alcotest.test_case "lookup_batch checks output capacity" `Quick (fun () ->
        let t = Flat_fib.create () in
        Alcotest.check_raises "short out"
          (Invalid_argument "Flat_fib.lookup_batch: output array shorter than input")
          (fun () ->
            Flat_fib.lookup_batch t [| ip "10.0.0.1"; ip "10.0.0.2" |]
              (Array.make 1 None)));
  ]

let sample_udp_frame =
  Ethernet.make
    ~src:(Mac.of_string_exn "00:aa:00:00:00:01")
    ~dst:(Mac.of_string_exn "00:bb:00:00:00:02")
    (Ethernet.Ipv4
       (Ipv4_packet.udp ~src:(Ipv4.of_octets 10 0 0 1) ~dst:(Ipv4.of_octets 1 2 3 4)
          ~src_port:5001 ~dst_port:9000 "hello world"))

let sample_arp_frame =
  Ethernet.make
    ~src:(Mac.of_string_exn "00:aa:00:00:00:01")
    ~dst:Mac.broadcast
    (Ethernet.Arp
       (Arp.request
          ~sender_mac:(Mac.of_string_exn "00:aa:00:00:00:01")
          ~sender_ip:(Ipv4.of_octets 10 0 0 1)
          ~target_ip:(Ipv4.of_octets 10 0 0 2)))

let arbitrary_frame =
  let open QCheck in
  let gen_mac = map (fun i -> Mac.of_int64 (Int64.of_int (abs i))) int in
  let gen_payload =
    oneof
      [
        map
          (fun ((src, dst), (sp, dp), body) ->
            Ethernet.Ipv4
              (Ipv4_packet.udp ~src ~dst ~src_port:(abs sp mod 65536)
                 ~dst_port:(abs dp mod 65536) body))
          (triple (pair arbitrary_ipv4 arbitrary_ipv4) (pair int int) small_printable_string);
        map
          (fun ((src, dst), proto, body) ->
            Ethernet.Ipv4
              (Ipv4_packet.make ~src ~dst
                 (Ipv4_packet.Raw { protocol = 1 + (abs proto mod 16); body })))
          (triple (pair arbitrary_ipv4 arbitrary_ipv4) int small_printable_string);
        map
          (fun (sm, (si, ti)) ->
            Ethernet.Arp (Arp.request ~sender_mac:sm ~sender_ip:si ~target_ip:ti))
          (pair gen_mac (pair arbitrary_ipv4 arbitrary_ipv4));
      ]
  in
  QCheck.map
    (fun ((src, dst), payload) -> Ethernet.make ~src ~dst payload)
    (pair (pair gen_mac gen_mac) gen_payload)

let wire_tests =
  [
    Alcotest.test_case "udp frame round-trips" `Quick (fun () ->
        match Wire.decode_frame (Wire.encode_frame sample_udp_frame) with
        | Ok f -> Alcotest.check frame "same" sample_udp_frame f
        | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e);
    Alcotest.test_case "arp frame round-trips" `Quick (fun () ->
        match Wire.decode_frame (Wire.encode_frame sample_arp_frame) with
        | Ok f -> Alcotest.check frame "same" sample_arp_frame f
        | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e);
    Alcotest.test_case "encoded length matches model" `Quick (fun () ->
        Alcotest.(check int) "udp" (Ethernet.length sample_udp_frame)
          (String.length (Wire.encode_frame sample_udp_frame));
        Alcotest.(check int) "arp" (Ethernet.length sample_arp_frame)
          (String.length (Wire.encode_frame sample_arp_frame)));
    Alcotest.test_case "ipv4 checksum is validated" `Quick (fun () ->
        let raw = Bytes.of_string (Wire.encode_frame sample_udp_frame) in
        (* Corrupt the TTL byte inside the IP header. *)
        Bytes.set raw 22 '\x01';
        match Wire.decode_frame (Bytes.to_string raw) with
        | Error (Wire.Bad_checksum "ipv4") -> ()
        | Ok _ -> Alcotest.fail "accepted corrupted header"
        | Error e -> Alcotest.failf "wrong error: %a" Wire.pp_error e);
    Alcotest.test_case "udp checksum is validated" `Quick (fun () ->
        let raw = Bytes.of_string (Wire.encode_frame sample_udp_frame) in
        (* Corrupt the first payload byte (beyond the IP header). *)
        Bytes.set raw (14 + 20 + 8) 'X';
        match Wire.decode_frame (Bytes.to_string raw) with
        | Error (Wire.Bad_checksum "udp") -> ()
        | Ok _ -> Alcotest.fail "accepted corrupted payload"
        | Error e -> Alcotest.failf "wrong error: %a" Wire.pp_error e);
    Alcotest.test_case "truncation reports an error" `Quick (fun () ->
        let raw = Wire.encode_frame sample_udp_frame in
        for cut = 0 to String.length raw - 1 do
          match Wire.decode_frame (String.sub raw 0 cut) with
          | Ok _ -> Alcotest.failf "accepted truncation at %d" cut
          | Error _ -> ()
        done);
    Alcotest.test_case "internet checksum known vector" `Quick (fun () ->
        (* RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> checksum 0x220d. *)
        let data = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
        Alcotest.(check int) "sum" 0x220d (Wire.internet_checksum data));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"frame codec round-trip" ~count:300 arbitrary_frame
         (fun f ->
           match Wire.decode_frame (Wire.encode_frame f) with
           | Ok f' -> Ethernet.equal f f'
           | Error _ -> false));
  ]

let link_tests =
  [
    Alcotest.test_case "delivers after delay" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let link = Link.create e ~delay:(Sim.Time.of_us 7) () in
        let got = ref None in
        Link.attach link Link.B (fun f -> got := Some (f, Sim.Engine.now e));
        Link.send link Link.A sample_udp_frame;
        Sim.Engine.run e;
        match !got with
        | Some (f, at) ->
          Alcotest.check frame "frame" sample_udp_frame f;
          Alcotest.(check int64) "delay" 7_000L (Sim.Time.to_ns at)
        | None -> Alcotest.fail "not delivered");
    Alcotest.test_case "both directions" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let link = Link.create e () in
        let a = ref 0 and b = ref 0 in
        Link.attach link Link.A (fun _ -> incr a);
        Link.attach link Link.B (fun _ -> incr b);
        Link.send link Link.A sample_udp_frame;
        Link.send link Link.B sample_udp_frame;
        Sim.Engine.run e;
        Alcotest.(check (pair int int)) "one each" (1, 1) (!a, !b));
    Alcotest.test_case "down link drops sends" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let link = Link.create e () in
        let got = ref 0 in
        Link.attach link Link.B (fun _ -> incr got);
        Link.set_up link false;
        Link.send link Link.A sample_udp_frame;
        Sim.Engine.run e;
        Alcotest.(check int) "dropped" 0 !got;
        Alcotest.(check int) "counted" 1 (Link.frames_dropped link));
    Alcotest.test_case "in-flight frames die when the cable is pulled" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let link = Link.create e ~delay:(Sim.Time.of_ms 1) () in
        let got = ref 0 in
        Link.attach link Link.B (fun _ -> incr got);
        Link.send link Link.A sample_udp_frame;
        ignore
          (Sim.Engine.schedule_after e (Sim.Time.of_us 500) (fun () ->
               Link.set_up link false));
        Sim.Engine.run e;
        Alcotest.(check int) "lost" 0 !got);
    Alcotest.test_case "frames sent before recovery stay lost" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let link = Link.create e ~delay:(Sim.Time.of_ms 1) () in
        let got = ref 0 in
        Link.attach link Link.B (fun _ -> incr got);
        Link.set_up link false;
        Link.send link Link.A sample_udp_frame;
        Link.set_up link true;
        Link.send link Link.A sample_udp_frame;
        Sim.Engine.run e;
        Alcotest.(check int) "only post-recovery frame" 1 !got);
  ]


let pcap_tests =
  [
    Alcotest.test_case "write then read back round-trips" `Quick (fun () ->
        let path = Filename.temp_file "sc_pcap" ".pcap" in
        let w = Pcap.create_file path in
        Pcap.write_frame w (Sim.Time.of_us 100) sample_udp_frame;
        Pcap.write_frame w (Sim.Time.of_sec 2.5) sample_arp_frame;
        Alcotest.(check int) "count" 2 (Pcap.frames_written w);
        Pcap.close w;
        (match Pcap.read_file path with
        | Ok [(t1, f1); (t2, f2)] ->
          Alcotest.(check int64) "t1" (Sim.Time.to_ns (Sim.Time.of_us 100))
            (Sim.Time.to_ns t1);
          Alcotest.(check int64) "t2" (Sim.Time.to_ns (Sim.Time.of_sec 2.5))
            (Sim.Time.to_ns t2);
          Alcotest.check frame "f1" sample_udp_frame f1;
          Alcotest.check frame "f2" sample_arp_frame f2
        | Ok _ -> Alcotest.fail "expected two records"
        | Error e -> Alcotest.failf "read failed: %a" Wire.pp_error e);
        Sys.remove path);
    Alcotest.test_case "global header is nanosecond pcap + ethernet" `Quick
      (fun () ->
        let path = Filename.temp_file "sc_pcap" ".pcap" in
        let w = Pcap.create_file path in
        Pcap.close w;
        let ic = open_in_bin path in
        let header = really_input_string ic 24 in
        close_in ic;
        Sys.remove path;
        Alcotest.(check string) "magic" "\xa1\xb2\x3c\x4d" (String.sub header 0 4);
        Alcotest.(check int) "linktype" 1 (Char.code header.[23]));
    Alcotest.test_case "link tap captures both directions and lost frames" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let link = Link.create e () in
        Link.attach link Link.A (fun _ -> ());
        Link.attach link Link.B (fun _ -> ());
        let path = Filename.temp_file "sc_pcap" ".pcap" in
        let w = Pcap.create_file path in
        Pcap.tap_link w link;
        Link.send link Link.A sample_udp_frame;
        Link.send link Link.B sample_arp_frame;
        Link.set_up link false;
        Link.send link Link.A sample_udp_frame (* lost, still on the tap *);
        Sim.Engine.run e;
        Pcap.close w;
        (match Pcap.read_file path with
        | Ok records -> Alcotest.(check int) "three frames" 3 (List.length records)
        | Error err -> Alcotest.failf "read failed: %a" Wire.pp_error err);
        Sys.remove path);
  ]

(* The scalar types are immediates, but their hashes and orders are
   pinned to the values they had as boxed int32/int64s: hash values fix
   the bucket layout, and so the iteration order, of every table keyed
   on them, and the simulation's exact numbers depend on that order. *)
let representation_tests =
  let golden name hash parse cases =
    Alcotest.test_case (name ^ " hash golden values") `Quick (fun () ->
        List.iter
          (fun (s, h) -> Alcotest.(check int) (name ^ " " ^ s) h (hash (parse s)))
          cases)
  in
  (* Reference order, computed on the int32 wire form: unsigned network
     first, then length. *)
  let reference_compare a b =
    let c =
      Int32.unsigned_compare
        (Ipv4.to_int32 (Prefix.network a))
        (Ipv4.to_int32 (Prefix.network b))
    in
    if c <> 0 then c else Int.compare (Prefix.length a) (Prefix.length b)
  in
  (* Addresses either side of 128.0.0.0 (the int32 sign bit), drawn
     often enough that equal networks of different lengths meet. *)
  let edge_addr =
    QCheck.(
      oneof
        [
          map Int32.of_int int;
          oneofl [0l; 1l; 0x7FFF_FFFFl; 0x8000_0000l; 0x8000_0001l; -1l];
        ])
  in
  let edge_prefix =
    QCheck.map
      (fun (a, len) -> Prefix.make (Ipv4.of_int32 a) len)
      QCheck.(pair edge_addr (0 -- 32))
  in
  let sign n = if n < 0 then -1 else if n > 0 then 1 else 0 in
  [
    golden "Ipv4" Ipv4.hash Ipv4.of_string_exn
      [
        ("0.0.0.0", 0);
        ("1.2.3.4", 16909060);
        ("10.0.0.1", 167772161);
        ("127.255.255.255", 2147483647);
        ("128.0.0.0", 4611686016279904256);
        ("128.0.0.1", 4611686016279904257);
        ("192.168.1.1", 4611686017364656385);
        ("200.1.2.3", 4611686017487929859);
        ("255.255.255.255", 4611686018427387903);
      ];
    golden "Prefix" Prefix.hash Prefix.v
      [
        ("0.0.0.0/0", 0);
        ("1.0.0.0/24", 44534528918668562);
        ("10.0.0.0/8", 445342800710112774);
        ("127.255.255.0/24", 1088731111597175700);
        ("128.0.0.0/1", 3522997722310037376);
        ("128.0.0.0/24", 3522997773956936722);
        ("192.168.1.0/24", 1790724339913332403);
        ("200.1.2.0/24", 2117925192409228982);
        ("255.255.255.255/32", 4611615718996055966);
      ];
    golden "Mac" Mac.hash Mac.of_string_exn
      [
        ("00:00:00:00:00:00", 0);
        ("00:00:00:00:00:01", 1);
        ("00:bb:00:00:00:02", 803158884354);
        ("7f:ff:ff:ff:ff:ff", 140737488355327);
        ("80:00:00:00:00:00", 140737488355328);
        ("ff:ff:ff:ff:ff:ff", 281474976710655);
      ];
    Alcotest.test_case "int32 round-trip at the edges" `Quick (fun () ->
        List.iter
          (fun x ->
            Alcotest.(check int32) (Int32.to_string x) x (Ipv4.to_int32 (Ipv4.of_int32 x)))
          [0l; 1l; Int32.max_int; Int32.min_int; -1l]);
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"ipv4 of_int32/to_int32 round-trip" ~count:1000
         QCheck.int32 (fun x -> Int32.equal (Ipv4.to_int32 (Ipv4.of_int32 x)) x));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"ipv4 compare is unsigned int32 order" ~count:1000
         QCheck.(pair edge_addr edge_addr)
         (fun (a, b) ->
           sign (Ipv4.compare (Ipv4.of_int32 a) (Ipv4.of_int32 b))
           = sign (Int32.unsigned_compare a b)));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"prefix compare is (unsigned network, length) order"
         ~count:1000 QCheck.(pair edge_prefix edge_prefix)
         (fun (a, b) -> sign (Prefix.compare a b) = sign (reference_compare a b)));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"prefix make clears host bits" ~count:1000
         QCheck.(pair edge_addr (0 -- 32))
         (fun (a, len) ->
           let p = Prefix.make (Ipv4.of_int32 a) len in
           let mask = if len = 0 then 0l else Int32.shift_left (-1l) (32 - len) in
           Prefix.length p = len
           && Int32.equal (Ipv4.to_int32 (Prefix.network p)) (Int32.logand a mask)));
  ]

let suite =
  [
    ("net.ipv4", ipv4_tests);
    ("net.representation", representation_tests);
    ("net.validation", validation_tests);
    ("net.mac", mac_tests);
    ("net.prefix", prefix_tests);
    ("net.lpm", lpm_tests);
    ("net.flat_fib", flat_fib_tests);
    ("net.wire", wire_tests);
    ("net.link", link_tests);
    ("net.pcap", pcap_tests);
  ]
