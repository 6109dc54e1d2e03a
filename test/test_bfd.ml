(* Tests for the BFD substrate: control-packet codec and the
   asynchronous-mode state machine. *)

let sample_packet =
  {
    Bfd.Packet.state = Bfd.Packet.Up;
    diag = Bfd.Packet.No_diagnostic;
    detect_mult = 3;
    my_discriminator = 7l;
    your_discriminator = 9l;
    desired_min_tx_us = 40_000;
    required_min_rx_us = 40_000;
  }

let packet_tests =
  [
    Alcotest.test_case "codec round-trip" `Quick (fun () ->
        match Bfd.Packet.decode (Bfd.Packet.encode sample_packet) with
        | Ok p -> Alcotest.(check bool) "equal" true (Bfd.Packet.equal p sample_packet)
        | Error e -> Alcotest.failf "decode: %a" Net.Wire.pp_error e);
    Alcotest.test_case "codec round-trips every state and diag" `Quick (fun () ->
        List.iter
          (fun state ->
            List.iter
              (fun diag ->
                let p = { sample_packet with Bfd.Packet.state; diag } in
                match Bfd.Packet.decode (Bfd.Packet.encode p) with
                | Ok p' ->
                  Alcotest.(check bool) "equal" true (Bfd.Packet.equal p p')
                | Error e -> Alcotest.failf "decode: %a" Net.Wire.pp_error e)
              [
                Bfd.Packet.No_diagnostic;
                Bfd.Packet.Control_detection_time_expired;
                Bfd.Packet.Neighbor_signaled_down;
                Bfd.Packet.Administratively_down;
              ])
          [Bfd.Packet.Admin_down; Bfd.Packet.Down; Bfd.Packet.Init; Bfd.Packet.Up]);
    Alcotest.test_case "encoding is 24 bytes" `Quick (fun () ->
        Alcotest.(check int) "length" 24 (String.length (Bfd.Packet.encode sample_packet)));
    Alcotest.test_case "zero discriminator rejected" `Quick (fun () ->
        let raw =
          Bfd.Packet.encode { sample_packet with Bfd.Packet.my_discriminator = 1l }
        in
        let corrupted = Bytes.of_string raw in
        Bytes.set corrupted 4 '\x00';
        Bytes.set corrupted 5 '\x00';
        Bytes.set corrupted 6 '\x00';
        Bytes.set corrupted 7 '\x00';
        match Bfd.Packet.decode (Bytes.to_string corrupted) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted zero discriminator");
    Alcotest.test_case "truncated packet rejected" `Quick (fun () ->
        let raw = Bfd.Packet.encode sample_packet in
        match Bfd.Packet.decode (String.sub raw 0 10) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted truncation");
  ]

(* Wires two sessions back to back through the engine with a small
   one-way delay, optionally allowing the pipe to be cut. *)
let make_pair ?(tx_interval = Sim.Time.of_ms 40) () =
  let e = Sim.Engine.create () in
  let cut = ref false in
  let b_ref = ref None in
  let a_ref = ref None in
  let pipe target pkt =
    if not !cut then
      ignore
        (Sim.Engine.schedule_after e (Sim.Time.of_us 50) (fun () ->
             match !target with
             | Some session -> Bfd.Session.receive session pkt
             | None -> ()))
  in
  let a =
    Bfd.Session.create e ~name:"a" ~local_discriminator:1l ~tx_interval
      ~send:(pipe b_ref) ()
  in
  let b =
    Bfd.Session.create e ~name:"b" ~local_discriminator:2l ~tx_interval
      ~send:(pipe a_ref) ()
  in
  a_ref := Some a;
  b_ref := Some b;
  (e, a, b, cut)

let session_tests =
  [
    Alcotest.test_case "three-way handshake reaches Up" `Quick (fun () ->
        let e, a, b, _ = make_pair () in
        Bfd.Session.enable a;
        Bfd.Session.enable b;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) e;
        Alcotest.(check bool) "a up" true (Bfd.Session.state a = Bfd.Packet.Up);
        Alcotest.(check bool) "b up" true (Bfd.Session.state b = Bfd.Packet.Up);
        Alcotest.(check bool) "traffic flowed" true (Bfd.Session.packets_received a > 0));
    Alcotest.test_case "silence is detected within mult x interval" `Quick (fun () ->
        let e, a, b, cut = make_pair () in
        let down_at = ref None in
        Bfd.Session.on_state_change a (fun state _ ->
            if state = Bfd.Packet.Down && !down_at = None then
              down_at := Some (Sim.Engine.now e));
        Bfd.Session.enable a;
        Bfd.Session.enable b;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) e;
        let cut_time = Sim.Engine.now e in
        cut := true;
        Sim.Engine.run ~until:(Sim.Time.of_sec 2.0) e;
        match !down_at with
        | Some t ->
          let elapsed = Sim.Time.to_ms (Sim.Time.sub t cut_time) in
          (* Detection no earlier than (mult-1) x interval after the last
             received packet and no later than mult x interval plus one
             interval of phase. *)
          Alcotest.(check bool)
            (Fmt.str "detection in bounds (%.1fms)" elapsed)
            true
            (elapsed >= 80.0 && elapsed <= 165.0)
        | None -> Alcotest.fail "never detected");
    Alcotest.test_case "detection diag is Control_detection_time_expired" `Quick
      (fun () ->
        let e, a, b, cut = make_pair () in
        let diag = ref Bfd.Packet.No_diagnostic in
        Bfd.Session.on_state_change a (fun state d ->
            if state = Bfd.Packet.Down then diag := d);
        Bfd.Session.enable a;
        Bfd.Session.enable b;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) e;
        cut := true;
        Sim.Engine.run ~until:(Sim.Time.of_sec 2.0) e;
        Alcotest.(check bool) "diag" true
          (!diag = Bfd.Packet.Control_detection_time_expired));
    Alcotest.test_case "admin down tells the peer" `Quick (fun () ->
        let e, a, b, _ = make_pair () in
        Bfd.Session.enable a;
        Bfd.Session.enable b;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) e;
        Bfd.Session.disable a;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.2) e;
        Alcotest.(check bool) "a admin down" true
          (Bfd.Session.state a = Bfd.Packet.Admin_down);
        Alcotest.(check bool) "b saw it" true (Bfd.Session.state b = Bfd.Packet.Down));
    Alcotest.test_case "faster interval detects faster" `Quick (fun () ->
        let run_with interval =
          let e, a, b, cut = make_pair ~tx_interval:interval () in
          let down_at = ref None in
          Bfd.Session.on_state_change a (fun state _ ->
              if state = Bfd.Packet.Down && !down_at = None then
                down_at := Some (Sim.Engine.now e));
          Bfd.Session.enable a;
          Bfd.Session.enable b;
          Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) e;
          let cut_time = Sim.Engine.now e in
          cut := true;
          Sim.Engine.run ~until:(Sim.Time.of_sec 3.0) e;
          match !down_at with
          | Some t -> Sim.Time.to_ms (Sim.Time.sub t cut_time)
          | None -> Alcotest.fail "never detected"
        in
        let fast = run_with (Sim.Time.of_ms 10) in
        let slow = run_with (Sim.Time.of_ms 100) in
        Alcotest.(check bool)
          (Fmt.str "fast %.1fms < slow %.1fms" fast slow)
          true (fast < slow));
    Alcotest.test_case "detection time reflects remote parameters" `Quick (fun () ->
        let e, a, b, _ = make_pair ~tx_interval:(Sim.Time.of_ms 40) () in
        Bfd.Session.enable a;
        Bfd.Session.enable b;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) e;
        Alcotest.(check int64) "3 x 40ms" (Sim.Time.to_ns (Sim.Time.of_ms 120))
          (Sim.Time.to_ns (Bfd.Session.detection_time a)));
    Alcotest.test_case "a transmit interval under 1 us is rejected" `Quick (fun () ->
        let e = Sim.Engine.create () in
        List.iter
          (fun tx_interval ->
            Alcotest.check_raises (Fmt.str "%a" Sim.Time.pp tx_interval)
              (Invalid_argument "Bfd.Session.create: tx_interval") (fun () ->
                ignore
                  (Bfd.Session.create e ~local_discriminator:1l ~tx_interval
                     ~send:(fun _ -> ()) ())))
          [Sim.Time.zero; Sim.Time.of_ms (-5); Sim.Time.of_ns_int 999]);
    Alcotest.test_case "disabled session ignores input and stops sending" `Quick
      (fun () ->
        let e, a, b, _ = make_pair () in
        Bfd.Session.enable a;
        Bfd.Session.enable b;
        Sim.Engine.run ~until:(Sim.Time.of_sec 0.5) e;
        Bfd.Session.disable a;
        let sent_before = Bfd.Session.packets_sent a in
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.5) e;
        Alcotest.(check int) "no more tx" sent_before (Bfd.Session.packets_sent a));
  ]

let suite = [("bfd.packet", packet_tests); ("bfd.session", session_tests)]
