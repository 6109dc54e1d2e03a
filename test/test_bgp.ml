(* Tests for the BGP substrate: attributes, decision process, messages,
   RFC 4271 codec, RIB, channel, session FSM, speaker. *)

open Bgp

let ip = Net.Ipv4.of_string_exn
let pfx = Net.Prefix.v
let asn = Asn.of_int

let attrs ?(path = [65000]) ?med ?local_pref ?(communities = []) nh =
  Attributes.make
    ~as_path:[Attributes.Seq (List.map asn path)]
    ?med ?local_pref ~communities ~next_hop:(ip nh) ()

let route ?(peer_id = 0) ?(router_id = "10.0.0.2") ?ebgp ?igp_cost a =
  Route.make ?ebgp ?igp_cost ~peer_id ~peer_router_id:(ip router_id) a

let message = Alcotest.testable Message.pp Message.equal
let attributes = Alcotest.testable Attributes.pp Attributes.equal

let attributes_tests =
  [
    Alcotest.test_case "as_path length counts sets as one" `Quick (fun () ->
        let a =
          Attributes.make
            ~as_path:[Attributes.Seq [asn 1; asn 2]; Attributes.Set [asn 3; asn 4; asn 5]]
            ~next_hop:(ip "10.0.0.1") ()
        in
        Alcotest.(check int) "length" 3 (Attributes.as_path_length a));
    Alcotest.test_case "prepend_as extends the leading sequence" `Quick (fun () ->
        let a = attrs ~path:[65002; 3000] "10.0.0.2" in
        let a' = Attributes.prepend_as (asn 65001) a in
        Alcotest.(check int) "length" 3 (Attributes.as_path_length a');
        Alcotest.(check (option int)) "first" (Some 65001)
          (Option.map Asn.to_int (Attributes.first_as a')));
    Alcotest.test_case "prepend_as onto a set starts a new sequence" `Quick (fun () ->
        let a =
          Attributes.make ~as_path:[Attributes.Set [asn 1]] ~next_hop:(ip "10.0.0.1") ()
        in
        let a' = Attributes.prepend_as (asn 2) a in
        Alcotest.(check int) "length" 2 (Attributes.as_path_length a'));
    Alcotest.test_case "default local pref is 100" `Quick (fun () ->
        Alcotest.(check int) "default" 100
          (Attributes.effective_local_pref (attrs "10.0.0.1"));
        Alcotest.(check int) "explicit" 200
          (Attributes.effective_local_pref (attrs ~local_pref:200 "10.0.0.1")));
    Alcotest.test_case "origin preference order" `Quick (fun () ->
        Alcotest.(check (list int)) "igp<egp<incomplete" [0; 1; 2]
          (List.map Attributes.origin_preference
             [Attributes.Igp; Attributes.Egp; Attributes.Incomplete]));
    Alcotest.test_case "with_next_hop rewrites only the next hop" `Quick (fun () ->
        let a = attrs ~med:5 "10.0.0.2" in
        let a' = Attributes.with_next_hop a (ip "10.199.0.1") in
        Alcotest.(check bool) "nh" true
          (Net.Ipv4.equal a'.Attributes.next_hop (ip "10.199.0.1"));
        Alcotest.(check (option int)) "med kept" (Some 5) a'.Attributes.med);
  ]

let decision_tests =
  [
    Alcotest.test_case "higher local-pref wins" `Quick (fun () ->
        let a = route ~peer_id:0 (attrs ~local_pref:200 ~path:[1; 2; 3] "10.0.0.2") in
        let b = route ~peer_id:1 (attrs ~local_pref:100 ~path:[1] "10.0.0.3") in
        Alcotest.(check bool) "a preferred" true (Decision.compare a b < 0));
    Alcotest.test_case "shorter as-path wins" `Quick (fun () ->
        let a = route ~peer_id:0 (attrs ~path:[1; 2] "10.0.0.2") in
        let b = route ~peer_id:1 (attrs ~path:[1; 2; 3] "10.0.0.3") in
        Alcotest.(check bool) "a preferred" true (Decision.compare a b < 0));
    Alcotest.test_case "lower origin wins" `Quick (fun () ->
        let mk origin peer_id =
          route ~peer_id
            (Attributes.make ~origin ~as_path:[Attributes.Seq [asn 1]]
               ~next_hop:(ip "10.0.0.2") ())
        in
        Alcotest.(check bool) "igp over egp" true
          (Decision.compare (mk Attributes.Igp 0) (mk Attributes.Egp 1) < 0));
    Alcotest.test_case "MED compared only within the same neighbour AS" `Quick
      (fun () ->
        let a = route ~peer_id:0 (attrs ~path:[7; 9] ~med:10 "10.0.0.2") in
        let b = route ~peer_id:1 ~router_id:"10.0.0.3" (attrs ~path:[7; 8] ~med:5 "10.0.0.3") in
        Alcotest.(check bool) "same AS: lower med wins" true (Decision.compare b a < 0);
        let c = route ~peer_id:1 ~router_id:"10.0.0.3" (attrs ~path:[6; 8] ~med:5 "10.0.0.3") in
        (* Different neighbour AS: med ignored, falls to router-id. *)
        Alcotest.(check bool) "diff AS: med skipped" true (Decision.compare a c < 0));
    Alcotest.test_case "missing MED treated as zero" `Quick (fun () ->
        let a = route ~peer_id:0 (attrs ~path:[7] "10.0.0.2") in
        let b = route ~peer_id:1 ~router_id:"10.0.0.3" (attrs ~path:[7] ~med:5 "10.0.0.3") in
        Alcotest.(check bool) "absent beats 5" true (Decision.compare a b < 0));
    Alcotest.test_case "eBGP beats iBGP" `Quick (fun () ->
        let a = route ~peer_id:0 ~ebgp:false (attrs "10.0.0.2") in
        let b = route ~peer_id:1 ~router_id:"10.0.0.3" ~ebgp:true (attrs "10.0.0.3") in
        Alcotest.(check bool) "ebgp wins" true (Decision.compare b a < 0));
    Alcotest.test_case "lower IGP cost wins" `Quick (fun () ->
        let a = route ~peer_id:0 ~igp_cost:10 (attrs "10.0.0.2") in
        let b = route ~peer_id:1 ~router_id:"10.0.0.3" ~igp_cost:5 (attrs "10.0.0.3") in
        Alcotest.(check bool) "cheaper wins" true (Decision.compare b a < 0));
    Alcotest.test_case "router-id tiebreak" `Quick (fun () ->
        let a = route ~peer_id:0 ~router_id:"10.0.0.9" (attrs "10.0.0.2") in
        let b = route ~peer_id:1 ~router_id:"10.0.0.3" (attrs "10.0.0.3") in
        Alcotest.(check bool) "lower id wins" true (Decision.compare b a < 0));
    Alcotest.test_case "rank returns best-first and best agrees" `Quick (fun () ->
        let best = route ~peer_id:0 (attrs ~local_pref:300 "10.0.0.2") in
        let mid = route ~peer_id:1 ~router_id:"10.0.0.3" (attrs ~local_pref:200 "10.0.0.3") in
        let worst = route ~peer_id:2 ~router_id:"10.0.0.4" (attrs ~local_pref:100 "10.0.0.4") in
        let ranked = Decision.rank [mid; worst; best] in
        Alcotest.(check (list int)) "order" [0; 1; 2]
          (List.map (fun (r : Route.t) -> r.peer_id) ranked);
        match Decision.best [mid; worst; best] with
        | Some r -> Alcotest.(check int) "best" 0 r.Route.peer_id
        | None -> Alcotest.fail "no best");
    Alcotest.test_case "total order: never equal for distinct peers" `Quick (fun () ->
        let a = route ~peer_id:0 (attrs "10.0.0.2") in
        let b = route ~peer_id:1 (attrs "10.0.0.2") in
        Alcotest.(check bool) "strict" true (Decision.compare a b <> 0));
  ]

let message_tests =
  [
    Alcotest.test_case "update constructor validates" `Quick (fun () ->
        Alcotest.check_raises "nlri without attrs"
          (Invalid_argument "Message.update: NLRI without attributes") (fun () ->
            ignore (Message.update ~nlri:[pfx "1.0.0.0/24"] ()));
        Alcotest.check_raises "empty"
          (Invalid_argument "Message.update: empty update") (fun () ->
            ignore (Message.update ())));
    Alcotest.test_case "announce / withdraw shapes" `Quick (fun () ->
        (match Message.announce (attrs "10.0.0.2") [pfx "1.0.0.0/24"] with
        | Message.Update { nlri = [_]; withdrawn = []; attrs = Some _ } -> ()
        | _ -> Alcotest.fail "announce shape");
        match Message.withdraw [pfx "1.0.0.0/24"] with
        | Message.Update { nlri = []; withdrawn = [_]; attrs = None } -> ()
        | _ -> Alcotest.fail "withdraw shape");
  ]

let codec_roundtrip msg =
  match Codec.decode_exact (Codec.encode msg) with
  | Ok msg' -> Alcotest.check message "round-trip" msg msg'
  | Error e -> Alcotest.failf "decode failed: %a" Net.Wire.pp_error e

let arbitrary_update =
  let open QCheck in
  let gen_prefix =
    map
      (fun (a, len) ->
        Net.Prefix.make (Net.Ipv4.of_int32 (Int32.of_int a)) (8 + (abs len mod 25)))
      (pair int (0 -- 24))
  in
  let gen_attrs =
    map
      (fun ((nh, path), (med, lp)) ->
        Attributes.make
          ~as_path:[Attributes.Seq (List.map (fun a -> asn (abs a mod 65536)) path)]
          ?med:(Option.map (fun m -> abs m mod 1000) med)
          ?local_pref:(Option.map (fun l -> abs l mod 1000) lp)
          ~next_hop:nh ())
      (pair
         (pair (map (fun i -> Net.Ipv4.of_int32 (Int32.of_int i)) int) (small_list int))
         (pair (option int) (option int)))
  in
  QCheck.map
    (fun ((withdrawn, nlri), attrs) ->
      if nlri = [] then
        if withdrawn = [] then Message.withdraw [pfx "1.0.0.0/24"]
        else Message.withdraw withdrawn
      else Message.Update { withdrawn; attrs = Some attrs; nlri })
    (pair (pair (small_list gen_prefix) (small_list gen_prefix)) gen_attrs)

let codec_tests =
  [
    Alcotest.test_case "open round-trips" `Quick (fun () ->
        codec_roundtrip
          (Message.Open
             { version = 4; asn = asn 65001; hold_time = 90; router_id = ip "10.0.0.1" }));
    Alcotest.test_case "keepalive round-trips" `Quick (fun () ->
        codec_roundtrip Message.Keepalive);
    Alcotest.test_case "notification round-trips" `Quick (fun () ->
        codec_roundtrip (Message.Notification { code = 6; subcode = 2; data = "bye" }));
    Alcotest.test_case "announce with all attributes round-trips" `Quick (fun () ->
        codec_roundtrip
          (Message.announce
             (Attributes.make ~origin:Attributes.Egp
                ~as_path:[Attributes.Seq [asn 65002; asn 3000]; Attributes.Set [asn 1; asn 2]]
                ~med:50 ~local_pref:200
                ~communities:[(65000, 1); (65000, 2)]
                ~next_hop:(ip "10.0.0.2") ())
             [pfx "1.0.0.0/24"; pfx "2.0.0.0/8"; pfx "3.3.3.3/32"; pfx "0.0.0.0/0"]));
    Alcotest.test_case "withdraw-only round-trips" `Quick (fun () ->
        codec_roundtrip (Message.withdraw [pfx "1.0.0.0/24"; pfx "10.0.0.0/8"]));
    Alcotest.test_case "decode_all cuts a byte stream" `Quick (fun () ->
        let msgs =
          [
            Message.Keepalive;
            Message.announce (attrs "10.0.0.2") [pfx "1.0.0.0/24"];
            Message.Keepalive;
          ]
        in
        let stream = String.concat "" (List.map Codec.encode msgs) in
        match Codec.decode_all stream with
        | Ok decoded ->
          Alcotest.(check int) "count" 3 (List.length decoded);
          List.iter2 (fun a b -> Alcotest.check message "msg" a b) msgs decoded
        | Error e -> Alcotest.failf "decode_all: %a" Net.Wire.pp_error e);
    Alcotest.test_case "bad marker rejected" `Quick (fun () ->
        let raw = Bytes.of_string (Codec.encode Message.Keepalive) in
        Bytes.set raw 0 '\x00';
        match Codec.decode (Bytes.to_string raw) with
        | Error (Net.Wire.Malformed "header marker") -> ()
        | Ok _ -> Alcotest.fail "accepted bad marker"
        | Error e -> Alcotest.failf "wrong error: %a" Net.Wire.pp_error e);
    Alcotest.test_case "oversized update refuses to encode" `Quick (fun () ->
        let many =
          List.init 1500 (fun i ->
              Net.Prefix.make
                (Net.Ipv4.of_octets 1 (i / 256 mod 256) (i mod 256) 0)
                24)
        in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Codec.encode (Message.announce (attrs "10.0.0.2") many));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "truncated message rejected" `Quick (fun () ->
        let raw = Codec.encode (Message.announce (attrs "10.0.0.2") [pfx "1.0.0.0/24"]) in
        match Codec.decode (String.sub raw 0 (String.length raw - 3)) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted truncation");
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"update codec round-trip" ~count:300 arbitrary_update
         (fun msg ->
           match Codec.decode_exact (Codec.encode msg) with
           | Ok msg' -> Message.equal msg msg'
           | Error _ -> false
           | exception Invalid_argument _ -> QCheck.assume_fail ()));
  ]

let stream_tests =
  let sample_messages =
    [
      Message.Open { version = 4; asn = asn 65002; hold_time = 90; router_id = ip "10.0.0.2" };
      Message.Keepalive;
      Message.announce (attrs ~med:3 "10.0.0.2") [pfx "1.0.0.0/24"; pfx "2.0.0.0/16"];
      Message.withdraw [pfx "1.0.0.0/24"];
      Message.Notification { code = 6; subcode = 0; data = "" };
    ]
  in
  let wire = String.concat "" (List.map Codec.encode sample_messages) in
  [
    Alcotest.test_case "whole stream in one chunk" `Quick (fun () ->
        let s = Stream.create () in
        match Stream.feed s wire with
        | Ok msgs ->
          Alcotest.(check int) "count" 5 (List.length msgs);
          List.iter2 (Alcotest.check message "msg") sample_messages msgs;
          Alcotest.(check int) "drained" 0 (Stream.buffered s)
        | Error e -> Alcotest.failf "feed: %a" Net.Wire.pp_error e);
    Alcotest.test_case "byte-at-a-time reassembly" `Quick (fun () ->
        let s = Stream.create () in
        let out = ref [] in
        String.iter
          (fun c ->
            match Stream.feed s (String.make 1 c) with
            | Ok msgs -> out := List.rev_append msgs !out
            | Error e -> Alcotest.failf "feed: %a" Net.Wire.pp_error e)
          wire;
        let msgs = List.rev !out in
        Alcotest.(check int) "count" 5 (List.length msgs);
        List.iter2 (Alcotest.check message "msg") sample_messages msgs);
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"any chunking yields the same messages" ~count:100
         QCheck.(small_list (1 -- 37))
         (fun cut_sizes ->
           let s = Stream.create () in
           let out = ref [] in
           let rec go offset cuts =
             if offset >= String.length wire then true
             else begin
               let step =
                 match cuts with [] -> String.length wire - offset | c :: _ -> c
               in
               let step = min step (String.length wire - offset) in
               match Stream.feed s (String.sub wire offset step) with
               | Ok msgs ->
                 out := List.rev_append msgs !out;
                 go (offset + step)
                   (match cuts with [] -> [] | _ :: rest -> rest)
               | Error _ -> false
             end
           in
           go 0 cut_sizes
           && List.equal Message.equal sample_messages (List.rev !out)));
    Alcotest.test_case "garbage poisons the stream permanently" `Quick (fun () ->
        let s = Stream.create () in
        (match Stream.feed s (String.make 19 '\x00') with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted garbage");
        Alcotest.(check bool) "poisoned" true (Stream.is_poisoned s);
        match Stream.feed s (Codec.encode Message.Keepalive) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "recovered from poison");
  ]

let rib_tests =
  [
    Alcotest.test_case "announce then best" `Quick (fun () ->
        let rib = Rib.create () in
        let r = route ~peer_id:0 (attrs "10.0.0.2") in
        let change =
          match Rib.announce rib (pfx "1.0.0.0/24") r with
          | Some c -> c
          | None -> Alcotest.fail "expected a change"
        in
        Alcotest.(check int) "before empty" 0 (List.length change.Rib.before);
        Alcotest.(check int) "after one" 1 (List.length change.Rib.after);
        match Rib.best rib (pfx "1.0.0.0/24") with
        | Some best -> Alcotest.(check int) "peer" 0 best.Route.peer_id
        | None -> Alcotest.fail "no best");
    Alcotest.test_case "ranked candidates from two peers" `Quick (fun () ->
        let rib = Rib.create () in
        ignore (Rib.announce rib (pfx "1.0.0.0/24") (route ~peer_id:1 ~router_id:"10.0.0.3" (attrs ~local_pref:100 "10.0.0.3")));
        ignore (Rib.announce rib (pfx "1.0.0.0/24") (route ~peer_id:0 (attrs ~local_pref:200 "10.0.0.2")));
        Alcotest.(check (list int)) "ranked" [0; 1]
          (List.map (fun (r : Route.t) -> r.peer_id) (Rib.ordered rib (pfx "1.0.0.0/24"))));
    Alcotest.test_case "re-announcement replaces implicitly" `Quick (fun () ->
        let rib = Rib.create () in
        ignore (Rib.announce rib (pfx "1.0.0.0/24") (route ~peer_id:0 (attrs ~med:1 "10.0.0.2")));
        ignore (Rib.announce rib (pfx "1.0.0.0/24") (route ~peer_id:0 (attrs ~med:2 "10.0.0.2")));
        Alcotest.(check int) "one candidate" 1
          (List.length (Rib.ordered rib (pfx "1.0.0.0/24"))));
    Alcotest.test_case "withdraw removes only that peer" `Quick (fun () ->
        let rib = Rib.create () in
        ignore (Rib.announce rib (pfx "1.0.0.0/24") (route ~peer_id:0 (attrs "10.0.0.2")));
        ignore (Rib.announce rib (pfx "1.0.0.0/24") (route ~peer_id:1 ~router_id:"10.0.0.3" (attrs "10.0.0.3")));
        (match Rib.withdraw rib (pfx "1.0.0.0/24") ~peer_id:0 with
        | Some change -> Alcotest.(check int) "one left" 1 (List.length change.Rib.after)
        | None -> Alcotest.fail "expected change");
        Alcotest.(check (option unit)) "absent peer is None" None
          (Option.map (fun _ -> ()) (Rib.withdraw rib (pfx "1.0.0.0/24") ~peer_id:5)));
    Alcotest.test_case "withdraw_peer clears a session's routes" `Quick (fun () ->
        let rib = Rib.create () in
        List.iter
          (fun s -> ignore (Rib.announce rib (pfx s) (route ~peer_id:0 (attrs "10.0.0.2"))))
          ["1.0.0.0/24"; "2.0.0.0/24"; "3.0.0.0/24"];
        ignore (Rib.announce rib (pfx "1.0.0.0/24") (route ~peer_id:1 ~router_id:"10.0.0.3" (attrs "10.0.0.3")));
        let changes = Rib.withdraw_peer rib ~peer_id:0 in
        Alcotest.(check int) "three changes" 3 (List.length changes);
        Alcotest.(check int) "one prefix survives" 1 (Rib.cardinal rib));
    Alcotest.test_case "withdraw_peer of an unknown peer is a no-op" `Quick
      (fun () ->
        (* A flap can race the slow path into withdrawing the same
           session twice; the duplicate (and a never-seen peer) must
           return [] without disturbing the table. *)
        let rib = Rib.create () in
        ignore (Rib.announce rib (pfx "1.0.0.0/24") (route ~peer_id:0 (attrs "10.0.0.2")));
        Alcotest.(check int) "never-seen peer yields no changes" 0
          (List.length (Rib.withdraw_peer rib ~peer_id:42));
        Alcotest.(check int) "table untouched" 1 (Rib.cardinal rib);
        Alcotest.(check int) "first withdrawal reports the route" 1
          (List.length (Rib.withdraw_peer rib ~peer_id:0));
        Alcotest.(check int) "repeat withdrawal is empty" 0
          (List.length (Rib.withdraw_peer rib ~peer_id:0));
        Alcotest.(check int) "index holds no phantom prefixes" 0
          (Rib.peer_prefix_count rib ~peer_id:0));
    Alcotest.test_case "apply_update handles withdrawals then announcements" `Quick
      (fun () ->
        let rib = Rib.create () in
        ignore (Rib.announce rib (pfx "1.0.0.0/24") (route ~peer_id:0 (attrs "10.0.0.2")));
        let u =
          {
            Message.withdrawn = [pfx "1.0.0.0/24"];
            attrs = Some (attrs "10.0.0.2");
            nlri = [pfx "2.0.0.0/24"];
          }
        in
        let changes =
          Rib.apply_update rib ~peer_id:0 ~peer_router_id:(ip "10.0.0.2") u
        in
        Alcotest.(check int) "two changes" 2 (List.length changes);
        Alcotest.(check bool) "1/24 gone" true (Rib.best rib (pfx "1.0.0.0/24") = None);
        Alcotest.(check bool) "2/24 there" true (Rib.best rib (pfx "2.0.0.0/24") <> None));
    Alcotest.test_case "identical re-announcement is suppressed as a no-op" `Quick
      (fun () ->
        let rib = Rib.create () in
        let r = route ~peer_id:0 (attrs ~med:7 "10.0.0.2") in
        Alcotest.(check bool) "first announce is a change" true
          (Rib.announce rib (pfx "1.0.0.0/24") r <> None);
        Alcotest.(check bool) "identical re-announce is None" true
          (Rib.announce rib (pfx "1.0.0.0/24") r = None);
        Alcotest.(check int) "still one candidate" 1
          (List.length (Rib.ordered rib (pfx "1.0.0.0/24")));
        (* A changed attribute is a real change again. *)
        Alcotest.(check bool) "different med is a change" true
          (Rib.announce rib (pfx "1.0.0.0/24") (route ~peer_id:0 (attrs ~med:8 "10.0.0.2"))
          <> None);
        (* The same suppression through apply_update: a repeat of the
           identical UPDATE yields an empty change list. *)
        let u =
          { Message.withdrawn = []; attrs = Some (attrs ~med:8 "10.0.0.2");
            nlri = [pfx "1.0.0.0/24"] }
        in
        Alcotest.(check int) "repeated identical update: no changes" 0
          (List.length (Rib.apply_update rib ~peer_id:0 ~peer_router_id:(ip "10.0.0.2") u)));
    Alcotest.test_case "per-peer index tracks announce/withdraw" `Quick (fun () ->
        let rib = Rib.create () in
        List.iter
          (fun s -> ignore (Rib.announce rib (pfx s) (route ~peer_id:3 (attrs "10.0.0.2"))))
          ["1.0.0.0/24"; "2.0.0.0/24"; "3.0.0.0/24"];
        Alcotest.(check int) "three indexed" 3 (Rib.peer_prefix_count rib ~peer_id:3);
        Alcotest.(check int) "other peer empty" 0 (Rib.peer_prefix_count rib ~peer_id:0);
        ignore (Rib.withdraw rib (pfx "2.0.0.0/24") ~peer_id:3);
        Alcotest.(check int) "two after withdraw" 2 (Rib.peer_prefix_count rib ~peer_id:3);
        ignore (Rib.withdraw_peer rib ~peer_id:3);
        Alcotest.(check int) "empty after peer-down" 0 (Rib.peer_prefix_count rib ~peer_id:3);
        Alcotest.(check int) "table empty too" 0 (Rib.cardinal rib));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"rib stays ranked under random ops" ~count:200
         QCheck.(small_list (pair (0 -- 4) (option (100 -- 300))))
         (fun ops ->
           let rib = Rib.create () in
           let p = pfx "9.9.0.0/16" in
           List.iter
             (fun (peer_id, lp) ->
               match lp with
               | Some local_pref ->
                 ignore
                   (Rib.announce rib p
                      (route ~peer_id
                         ~router_id:(Fmt.str "10.0.0.%d" (peer_id + 2))
                         (attrs ~local_pref "10.0.0.2")))
               | None -> ignore (Rib.withdraw rib p ~peer_id))
             ops;
           let ranked = Rib.ordered rib p in
           (* The stored list must equal a fresh sort of itself. *)
           List.equal Route.equal ranked (Decision.rank ranked)));
  ]

(* --- indexed RIB vs naive full-table reference ------------------------ *)

(* The reference model: ranked lists in a plain hashtable, with
   [withdraw_peer] implemented as the pre-index full-table fold. The
   property below drives both implementations through random
   interleavings of announce / withdraw / peer-down and demands
   identical change sets (same prefixes, same before/after ordering)
   at every step. *)
module Naive = struct
  type t = (Net.Prefix.t, Route.t list) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let ordered t p = Option.value ~default:[] (Hashtbl.find_opt t p)

  let store t p = function
    | [] -> Hashtbl.remove t p
    | routes -> Hashtbl.replace t p routes

  let announce t p (route : Route.t) =
    let before = ordered t p in
    let without = List.filter (fun (r : Route.t) -> r.peer_id <> route.peer_id) before in
    let after = Decision.rank (route :: without) in
    if List.equal Route.equal before after then None
    else begin
      store t p after;
      Some (p, before, after)
    end

  let withdraw t p ~peer_id =
    let before = ordered t p in
    if List.exists (fun (r : Route.t) -> r.peer_id = peer_id) before then begin
      let after = List.filter (fun (r : Route.t) -> r.peer_id <> peer_id) before in
      store t p after;
      Some (p, before, after)
    end
    else None

  let withdraw_peer t ~peer_id =
    let affected =
      Hashtbl.fold
        (fun p routes acc ->
          if List.exists (fun (r : Route.t) -> r.peer_id = peer_id) routes then p :: acc
          else acc)
        t []
    in
    List.filter_map
      (fun p -> withdraw t p ~peer_id)
      (List.sort Net.Prefix.compare affected)

  let dump t =
    List.sort
      (fun (p, _) (q, _) -> Net.Prefix.compare p q)
      (Hashtbl.fold (fun p routes acc -> (p, routes) :: acc) t [])
  let peer_prefixes t ~peer_id =
    List.filter_map
      (fun (p, routes) ->
        if List.exists (fun (r : Route.t) -> r.peer_id = peer_id) routes then Some p
        else None)
      (dump t)
end

type rib_op =
  | Op_announce of int * int * int (* peer, prefix index, local pref *)
  | Op_withdraw of int * int
  | Op_peer_down of int
  | Op_announce_run of int * int * int * int (* peer, first prefix, count, local pref *)

(* Sparse ids either side of byte and 64-bit word boundaries, so the
   per-peer index is keyed on ids that are not slot-like. *)
let equiv_peers = [|0; 1; 7; 8; 63; 64; 200|]

(* 80 prefixes over many mask lengths: more than 64 slots, so slots
   cross byte and word boundaries and every peer's bitmap must grow. *)
let equiv_prefixes =
  Array.init 80 (fun i -> Net.Prefix.make (Net.Ipv4.of_octets (1 + i) i 0 0) (8 + (i mod 25)))

(* Biased towards whole-peer withdrawals followed by runs of
   re-announcements: prefixes lose their last candidate and come back,
   so slots are recycled under prefixes other than their last owner. *)
let gen_rib_op =
  QCheck.map
    (fun (kind, peer, (prefix, count), lp) ->
      let peer = equiv_peers.(peer) in
      if kind < 4 then Op_announce (peer, prefix, 100 + (10 * lp))
      else if kind < 6 then Op_withdraw (peer, prefix)
      else if kind < 8 then Op_peer_down peer
      else Op_announce_run (peer, prefix, count, 100 + (10 * lp)))
    QCheck.(quad (0 -- 10) (0 -- 6) (pair (0 -- 79) (1 -- 40)) (0 -- 3))

let change_matches (c : Rib.change) (p, before, after) =
  Net.Prefix.equal c.Rib.prefix p
  && List.equal Route.equal c.Rib.before before
  && List.equal Route.equal c.Rib.after after

let same_change c reference =
  match c, reference with
  | None, None -> true
  | Some c, Some reference -> change_matches c reference
  | Some _, None | None, Some _ -> false

let indexed_equivalence_tests =
  [
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"indexed rib == naive reference on random interleavings"
         ~count:300
         QCheck.(list_of_size Gen.(0 -- 60) gen_rib_op)
         (fun ops ->
           let rib = Rib.create () in
           let naive = Naive.create () in
           let route_for peer lp =
             route ~peer_id:peer
               ~router_id:(Fmt.str "10.0.0.%d" (peer + 2))
               (attrs ~local_pref:lp (Fmt.str "10.0.0.%d" (peer + 2)))
           in
           let announce peer prefix_idx lp =
             let p = equiv_prefixes.(prefix_idx mod Array.length equiv_prefixes) in
             let r = route_for peer lp in
             same_change (Rib.announce rib p r) (Naive.announce naive p r)
           in
           let step_ok = function
             | Op_announce (peer, prefix_idx, lp) -> announce peer prefix_idx lp
             | Op_withdraw (peer, prefix_idx) ->
               let p = equiv_prefixes.(prefix_idx) in
               same_change (Rib.withdraw rib p ~peer_id:peer)
                 (Naive.withdraw naive p ~peer_id:peer)
             | Op_peer_down peer ->
               let changes = Rib.withdraw_peer rib ~peer_id:peer in
               let reference = Naive.withdraw_peer naive ~peer_id:peer in
               List.length changes = List.length reference
               && List.for_all2 change_matches changes reference
             | Op_announce_run (peer, first, count, lp) ->
               List.for_all (fun i -> announce peer (first + i) lp) (List.init count Fun.id)
           in
           (* The per-peer index agrees with the model after every step,
              prefix for prefix and in ascending order. *)
           let index_ok () =
             Array.for_all
               (fun peer_id ->
                 let expected = Naive.peer_prefixes naive ~peer_id in
                 Rib.peer_prefix_count rib ~peer_id = List.length expected
                 && List.equal Net.Prefix.equal (Rib.peer_prefixes rib ~peer_id) expected)
               equiv_peers
           in
           List.for_all (fun op -> step_ok op && index_ok ()) ops
           &&
           (* Final tables agree entry for entry. *)
           let dump =
             List.sort (fun (p, _) (q, _) -> Net.Prefix.compare p q)
               (Rib.fold rib ~init:[] ~f:(fun acc p routes -> (p, routes) :: acc))
           in
           List.equal
             (fun (p, rs) (q, qs) -> Net.Prefix.equal p q && List.equal Route.equal rs qs)
             dump (Naive.dump naive)));
    Alcotest.test_case "a recycled slot does not leak into its old peer's index" `Quick
      (fun () ->
        let rib = Rib.create () in
        let x = pfx "1.0.0.0/24" and y = pfx "2.0.0.0/24" in
        ignore (Rib.announce rib x (route ~peer_id:0 (attrs "10.0.0.2")));
        ignore (Rib.withdraw rib x ~peer_id:0);
        Alcotest.(check int) "x is gone" 0 (Rib.cardinal rib);
        (* y takes the slot x held, through another peer. *)
        ignore
          (Rib.announce rib y (route ~peer_id:1 ~router_id:"10.0.0.3" (attrs "10.0.0.3")));
        Alcotest.(check (list string)) "peer 0 lists nothing" []
          (List.map Net.Prefix.to_string (Rib.peer_prefixes rib ~peer_id:0));
        Alcotest.(check (list string)) "peer 1 lists y" ["2.0.0.0/24"]
          (List.map Net.Prefix.to_string (Rib.peer_prefixes rib ~peer_id:1));
        Alcotest.(check int) "peer 0's withdrawal reports nothing" 0
          (List.length (Rib.withdraw_peer rib ~peer_id:0));
        Alcotest.(check int) "y survives" 1 (List.length (Rib.ordered rib y));
        (* With one prefix of its own again, peer 0 lists exactly that:
           a bit left behind in x's old slot would surface y here. *)
        let w = pfx "3.0.0.0/24" in
        ignore (Rib.announce rib w (route ~peer_id:0 (attrs "10.0.0.2")));
        Alcotest.(check (list string)) "peer 0 lists only w" ["3.0.0.0/24"]
          (List.map Net.Prefix.to_string (Rib.peer_prefixes rib ~peer_id:0)));
  ]

let channel_tests =
  [
    Alcotest.test_case "delivers in order with delay" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let ch = Channel.create e ~delay:(Sim.Time.of_us 100) () in
        let got = ref [] in
        Channel.attach ch Channel.B (fun m -> got := m :: !got);
        Channel.send ch Channel.A Message.Keepalive;
        Channel.send ch Channel.A (Message.withdraw [pfx "1.0.0.0/24"]);
        Sim.Engine.run e;
        Alcotest.(check int) "two" 2 (List.length !got);
        (match List.rev !got with
        | [Message.Keepalive; Message.Update _] -> ()
        | _ -> Alcotest.fail "order"));
    Alcotest.test_case "break loses in-flight and notifies both sides" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let ch = Channel.create e ~delay:(Sim.Time.of_ms 1) () in
        let got = ref 0 and breaks = ref 0 in
        Channel.attach ch Channel.B (fun _ -> incr got);
        Channel.on_break ch Channel.A (fun () -> incr breaks);
        Channel.on_break ch Channel.B (fun () -> incr breaks);
        Channel.send ch Channel.A Message.Keepalive;
        Channel.break ch;
        Channel.send ch Channel.A Message.Keepalive;
        Sim.Engine.run e;
        Alcotest.(check int) "no delivery" 0 !got;
        Alcotest.(check int) "both notified" 2 !breaks;
        Alcotest.(check bool) "flag" true (Channel.is_broken ch));
    Alcotest.test_case "codec mode round-trips messages in transit" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let ch = Channel.create e ~use_codec:true () in
        let got = ref None in
        Channel.attach ch Channel.B (fun m -> got := Some m);
        let msg = Message.announce (attrs ~med:9 "10.0.0.2") [pfx "5.0.0.0/24"] in
        Channel.send ch Channel.A msg;
        Sim.Engine.run e;
        match !got with
        | Some m -> Alcotest.check message "same through codec" msg m
        | None -> Alcotest.fail "not delivered");
  ]

let make_session_pair ?(hold_a = 90) ?(hold_b = 90) ?fragment () =
  let e = Sim.Engine.create () in
  let ch = Channel.create e ~use_codec:true ?fragment () in
  let a =
    Session.create e ~channel:ch ~side:Channel.A ~asn:(asn 65001)
      ~router_id:(ip "10.0.0.1") ~hold_time:hold_a ~name:"a" ()
  in
  let b =
    Session.create e ~channel:ch ~side:Channel.B ~asn:(asn 65002)
      ~router_id:(ip "10.0.0.2") ~hold_time:hold_b ~name:"b" ()
  in
  (e, ch, a, b)

let session_tests =
  [
    Alcotest.test_case "handshake when one side starts" `Quick (fun () ->
        let e, _, a, b = make_session_pair () in
        Session.start a;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) e;
        Alcotest.(check bool) "a up" true (Session.state a = Session.Established);
        Alcotest.(check bool) "b up" true (Session.state b = Session.Established));
    Alcotest.test_case "handshake when both sides start" `Quick (fun () ->
        let e, _, a, b = make_session_pair () in
        Session.start a;
        Session.start b;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) e;
        Alcotest.(check bool) "both up" true
          (Session.state a = Session.Established && Session.state b = Session.Established));
    Alcotest.test_case "start is idempotent" `Quick (fun () ->
        let e, ch, a, b = make_session_pair () in
        Session.start a;
        Session.start a;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) e;
        Alcotest.(check bool) "established" true (Session.state a = Session.Established);
        ignore ch;
        ignore b);
    Alcotest.test_case "hold time negotiation takes the minimum" `Quick (fun () ->
        let e, _, a, b = make_session_pair ~hold_a:90 ~hold_b:30 () in
        Session.start a;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) e;
        Alcotest.(check (option int)) "a" (Some 30) (Session.negotiated_hold_time a);
        Alcotest.(check (option int)) "b" (Some 30) (Session.negotiated_hold_time b));
    Alcotest.test_case "updates flow after establishment" `Quick (fun () ->
        let e, _, a, b = make_session_pair () in
        let got = ref [] in
        Session.on_update b (fun u -> got := u :: !got);
        Session.on_established a (fun _ ->
            Session.send_update a
              { Message.withdrawn = []; attrs = Some (attrs "10.0.0.2"); nlri = [pfx "1.0.0.0/24"] });
        Session.start a;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) e;
        Alcotest.(check int) "received" 1 (List.length !got);
        Alcotest.(check int) "counted rx" 1 (Session.updates_received b);
        Alcotest.(check int) "counted tx" 1 (Session.updates_sent a));
    Alcotest.test_case "send_update outside Established raises" `Quick (fun () ->
        let _, _, a, _ = make_session_pair () in
        Alcotest.(check bool) "raises" true
          (try
             Session.send_update a
               { Message.withdrawn = [pfx "1.0.0.0/24"]; attrs = None; nlri = [] };
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "keepalives keep the session alive" `Quick (fun () ->
        let e, _, a, b = make_session_pair ~hold_a:3 ~hold_b:3 () in
        Session.start a;
        Sim.Engine.run ~until:(Sim.Time.of_sec 30.0) e;
        Alcotest.(check bool) "still up" true
          (Session.state a = Session.Established && Session.state b = Session.Established));
    Alcotest.test_case "silent peer trips the hold timer" `Quick (fun () ->
        (* Hand-drive side B so it completes the handshake and then goes
           silent (a dead host whose TCP stays open). *)
        let e = Sim.Engine.create () in
        let ch = Channel.create e () in
        let a =
          Session.create e ~channel:ch ~side:Channel.A ~asn:(asn 65001)
            ~router_id:(ip "10.0.0.1") ~hold_time:3 ~name:"a" ()
        in
        Channel.attach ch Channel.B (fun msg ->
            match msg with
            | Message.Open _ ->
              Channel.send ch Channel.B
                (Message.Open
                   { version = 4; asn = asn 65002; hold_time = 3; router_id = ip "10.0.0.2" });
              Channel.send ch Channel.B Message.Keepalive
            | _ -> ());
        let down_reason = ref None in
        Session.on_down a (fun r -> down_reason := Some r);
        Session.start a;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) e;
        Alcotest.(check bool) "established first" true
          (Session.state a = Session.Established);
        Sim.Engine.run ~until:(Sim.Time.of_sec 10.0) e;
        (match !down_reason with
        | Some Session.Hold_timer_expired -> ()
        | _ -> Alcotest.fail "expected hold expiry");
        Alcotest.(check bool) "closed" true (Session.state a = Session.Closed));
    Alcotest.test_case "notification closes both ends" `Quick (fun () ->
        let e, _, a, b = make_session_pair () in
        let reason = ref None in
        Session.on_down b (fun r -> reason := Some r);
        Session.start a;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) e;
        Session.stop a;
        Sim.Engine.run ~until:(Sim.Time.of_sec 2.0) e;
        Alcotest.(check bool) "a closed" true (Session.state a = Session.Closed);
        Alcotest.(check bool) "b closed" true (Session.state b = Session.Closed);
        match !reason with
        | Some (Session.Notification_received n) ->
          Alcotest.(check int) "cease" 6 n.Message.code
        | _ -> Alcotest.fail "expected notification");
    Alcotest.test_case "channel break brings the session down" `Quick (fun () ->
        let e, ch, a, _ = make_session_pair () in
        let reason = ref None in
        Session.on_down a (fun r -> reason := Some r);
        Session.start a;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) e;
        Channel.break ch;
        Sim.Engine.run ~until:(Sim.Time.of_sec 2.0) e;
        match !reason with
        | Some Session.Channel_broken -> ()
        | _ -> Alcotest.fail "expected channel break");
  ]

let fragmented_session_tests =
  [
    Alcotest.test_case "sessions work over a 7-byte-chunk byte stream" `Quick
      (fun () ->
        let e, _, a, b = make_session_pair ~fragment:7 () in
        let got = ref [] in
        Session.on_update b (fun u -> got := u :: !got);
        Session.on_established a (fun _ ->
            Session.send_update a
              { Message.withdrawn = [];
                attrs = Some (attrs ~med:5 "10.0.0.2");
                nlri = [pfx "1.0.0.0/24"; pfx "2.0.0.0/16"] });
        Session.start a;
        Sim.Engine.run ~until:(Sim.Time.of_sec 2.0) e;
        Alcotest.(check bool) "established through fragments" true
          (Session.state a = Session.Established
          && Session.state b = Session.Established);
        match !got with
        | [u] ->
          Alcotest.(check int) "nlri intact" 2 (List.length u.Message.nlri)
        | _ -> Alcotest.fail "expected exactly one update");
    Alcotest.test_case "1-byte chunks still converge" `Quick (fun () ->
        let e, _, a, b = make_session_pair ~fragment:1 () in
        Session.start a;
        Sim.Engine.run ~until:(Sim.Time.of_sec 2.0) e;
        Alcotest.(check bool) "up" true
          (Session.state a = Session.Established
          && Session.state b = Session.Established));
    Alcotest.test_case "fragment without codec is rejected" `Quick (fun () ->
        let e = Sim.Engine.create () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Channel.create e ~fragment:7 ());
             false
           with Invalid_argument _ -> true));
  ]

let speaker_tests =
  [
    Alcotest.test_case "multi-peer speaker routes callbacks by peer" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let hub = Speaker.create e ~name:"hub" ~asn:(asn 65001) ~router_id:(ip "10.0.0.1") () in
        let mk_leaf name id =
          let ch = Channel.create e () in
          let peer = Speaker.add_peer hub ~name ~channel:ch ~side:Channel.A () in
          let leaf =
            Speaker.create e ~name ~asn:(asn (65002 + id)) ~router_id:(ip (Fmt.str "10.0.0.%d" (2 + id))) ()
          in
          ignore (Speaker.add_peer leaf ~name:"hub" ~channel:ch ~side:Channel.B ());
          (peer, leaf)
        in
        let peer_a, leaf_a = mk_leaf "a" 0 in
        let _peer_b, leaf_b = mk_leaf "b" 1 in
        let seen = ref [] in
        Speaker.on_update hub (fun peer _ -> seen := peer.Speaker.id :: !seen);
        Speaker.start hub;
        Speaker.start leaf_a;
        Speaker.start leaf_b;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) e;
        Alcotest.(check int) "both established" 2 (Speaker.established_count hub);
        Speaker.send_update leaf_a ~peer_id:0
          { Message.withdrawn = [pfx "1.0.0.0/24"]; attrs = None; nlri = [] };
        Speaker.send_update leaf_b ~peer_id:0
          { Message.withdrawn = [pfx "2.0.0.0/24"]; attrs = None; nlri = [] };
        Sim.Engine.run ~until:(Sim.Time.of_sec 2.0) e;
        Alcotest.(check (list int)) "peer ids" [peer_a.Speaker.id; 1] (List.rev !seen));
  ]

let suite =
  [
    ("bgp.attributes", attributes_tests);
    ("bgp.decision", decision_tests);
    ("bgp.message", message_tests);
    ("bgp.codec", codec_tests);
    ("bgp.stream", stream_tests);
    ("bgp.rib", rib_tests);
    ("bgp.rib_indexed", indexed_equivalence_tests);
    ("bgp.channel", channel_tests);
    ("bgp.session", session_tests);
    ("bgp.session_over_bytes", fragmented_session_tests);
    ("bgp.speaker", speaker_tests);
  ]
