type t = {
  engine : Sim.Engine.t;
  name : string;
  rng : Sim.Rng.t;
  local_discriminator : int32;
  tx_interval : Sim.Time.t;
  send : Packet.t -> unit;
  mutable state : Packet.state;
  mutable diag : Packet.diagnostic;
  mutable remote_discriminator : int32;
  mutable remote_detect_mult : int;
  mutable remote_min_tx_us : int;
  mutable last_received : Sim.Time.t option;
  mutable tx_task : Sim.Engine.handle option;
  mutable detect_task : Sim.Engine.handle option;
  mutable state_cb : (Packet.state -> Packet.diagnostic -> unit) option;
  mutable sent : int;
  mutable received : int;
  m_detection : Obs.Histogram.t;
    (* seconds from last received control packet to declaring Down *)
}

let trace t fmt =
  Sim.Trace.emitf (Sim.Engine.trace t.engine) (Sim.Engine.now t.engine)
    ~category:"bfd" fmt

(* The paper's calibration: a peer is declared down after three missed
   intervals. *)
let detect_mult = 3

let create engine ?(name = "bfd") ~local_discriminator
    ?(tx_interval = Sim.Time.of_ms 40) ~send () =
  (* The wire carries intervals in microseconds, and a shorter one would
     re-arm the transmit timer at the same instant for ever. *)
  if Sim.Time.(tx_interval < of_us 1) then invalid_arg "Bfd.Session.create: tx_interval";
  {
    engine;
    name;
    rng = Sim.Rng.split (Sim.Engine.rng engine);
    local_discriminator;
    tx_interval;
    send;
    state = Packet.Down;
    diag = Packet.No_diagnostic;
    remote_discriminator = 0l;
    remote_detect_mult = detect_mult;
    remote_min_tx_us = 0;
    last_received = None;
    tx_task = None;
    detect_task = None;
    state_cb = None;
    sent = 0;
    received = 0;
    m_detection =
      Obs.Metrics.histogram (Sim.Engine.metrics engine) "bfd.detection_seconds";
  }

let detection_time t =
  (* RFC 5880 §6.8.4: remote detect-mult times the agreed interval, the
     larger of our required rx (our tx) and the remote's desired tx. *)
  let negotiated_us =
    Stdlib.max
      (Sim.Time.to_ns_int t.tx_interval / 1000)
      t.remote_min_tx_us
  in
  Sim.Time.mul (Sim.Time.of_us negotiated_us) t.remote_detect_mult

let set_state t state diag =
  if state <> t.state then begin
    trace t "%s: %a -> %a (%a)" t.name Packet.pp_state t.state Packet.pp_state
      state Packet.pp_diagnostic diag;
    t.state <- state;
    t.diag <- diag;
    match t.state_cb with Some f -> f state diag | None -> ()
  end

let control_packet t =
  {
    Packet.state = t.state;
    diag = t.diag;
    detect_mult;
    my_discriminator = t.local_discriminator;
    your_discriminator = t.remote_discriminator;
    desired_min_tx_us = Sim.Time.to_ns_int t.tx_interval / 1000;
    required_min_rx_us = Sim.Time.to_ns_int t.tx_interval / 1000;
  }

let transmit t () =
  if t.state <> Packet.Admin_down then begin
    t.sent <- t.sent + 1;
    t.send (control_packet t)
  end

(* RFC 5880 S6.8.7: transmissions are jittered to 75-100%% of the
   interval so that sessions sharing a box do not synchronise. The
   jitter also de-correlates the detection delay from the failure
   instant, giving the convergence measurements their natural spread. *)
let jittered_interval t =
  let base = Float.of_int (Sim.Time.to_ns_int t.tx_interval) in
  Sim.Time.of_ns_int (Float.to_int (base *. (0.75 +. Sim.Rng.float t.rng 0.25)))

let rec schedule_tx t =
  t.tx_task <-
    Some
      (Sim.Engine.schedule_after t.engine (jittered_interval t) (fun () ->
           if Option.is_some t.tx_task then begin
             transmit t ();
             schedule_tx t
           end))

(* Detection uses a self-rescheduling deadline check, like the BGP hold
   timer: the check fires at the earliest possible expiry and re-arms for
   the remainder if packets arrived in the meantime. *)
let rec arm_detection t =
  (match t.detect_task with Some h -> Sim.Engine.cancel h | None -> ());
  match t.last_received with
  | None -> ()
  | Some last ->
    let deadline = Sim.Time.add last (detection_time t) in
    let delay = Sim.Time.sub deadline (Sim.Engine.now t.engine) in
    let delay = if Sim.Time.is_negative delay then Sim.Time.zero else delay in
    t.detect_task <-
      Some
        (Sim.Engine.schedule_after t.engine delay (fun () ->
             match t.state, t.last_received with
             | (Packet.Up | Packet.Init), Some last ->
               let deadline = Sim.Time.add last (detection_time t) in
               if Sim.Time.(Sim.Engine.now t.engine >= deadline) then begin
                 Obs.Histogram.observe t.m_detection
                   (Sim.Time.to_sec (Sim.Time.sub (Sim.Engine.now t.engine) last));
                 set_state t Packet.Down Packet.Control_detection_time_expired
               end
               else arm_detection t
             | _ -> ()))

let enable t =
  if t.state = Packet.Admin_down then set_state t Packet.Down Packet.No_diagnostic;
  if Option.is_none t.tx_task then begin
    transmit t ();
    schedule_tx t
  end

let disable t =
  set_state t Packet.Admin_down Packet.Administratively_down;
  transmit t ();
  (match t.tx_task with Some h -> Sim.Engine.cancel h | None -> ());
  (match t.detect_task with Some h -> Sim.Engine.cancel h | None -> ());
  t.tx_task <- None;
  t.detect_task <- None

let receive t (pkt : Packet.t) =
  if t.state <> Packet.Admin_down then begin
    t.received <- t.received + 1;
    t.remote_discriminator <- pkt.my_discriminator;
    t.remote_detect_mult <- pkt.detect_mult;
    t.remote_min_tx_us <- pkt.desired_min_tx_us;
    t.last_received <- Some (Sim.Engine.now t.engine);
    (* RFC 5880 §6.8.6 state update. *)
    (match pkt.state with
    | Packet.Admin_down ->
      if t.state <> Packet.Down then
        set_state t Packet.Down Packet.Neighbor_signaled_down
    | Packet.Down -> (
      match t.state with
      | Packet.Down -> set_state t Packet.Init Packet.No_diagnostic
      | Packet.Up -> set_state t Packet.Down Packet.Neighbor_signaled_down
      | Packet.Init | Packet.Admin_down -> ())
    | Packet.Init -> (
      match t.state with
      | Packet.Down | Packet.Init -> set_state t Packet.Up Packet.No_diagnostic
      | Packet.Up | Packet.Admin_down -> ())
    | Packet.Up -> (
      match t.state with
      | Packet.Init -> set_state t Packet.Up Packet.No_diagnostic
      | Packet.Down ->
        (* Peer thinks the session is up but we are down: wait for it to
           notice our Down packets; do not jump straight to Up. *)
        ()
      | Packet.Up | Packet.Admin_down -> ()));
    arm_detection t
  end

(* Fault injection: force the state machine into [state] as if the
   detection logic had fired (or a rogue packet had been accepted). The
   session keeps running — peers still exchanging control packets will
   drag the FSM back through the normal RFC 5880 handshake, which is
   exactly how a spurious flap behaves. *)
let inject_state t state =
  if t.state <> Packet.Admin_down && state <> t.state then begin
    trace t "%s: fault-injected transition to %a" t.name Packet.pp_state state;
    (match state with
    | Packet.Down -> set_state t Packet.Down Packet.Control_detection_time_expired
    | s -> set_state t s Packet.No_diagnostic);
    (* An injected Up on a silent peer must still be knocked down by the
       detection timer, so re-arm it against the last real packet. *)
    arm_detection t
  end

let state t = t.state
let name t = t.name
let on_state_change t f = t.state_cb <- Some f
let packets_sent t = t.sent
let packets_received t = t.received
