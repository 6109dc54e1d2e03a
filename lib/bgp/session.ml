type state =
  | Idle
  | Open_sent
  | Open_confirm
  | Established
  | Closed

let pp_state ppf s =
  Fmt.string ppf
    (match s with
    | Idle -> "Idle"
    | Open_sent -> "OpenSent"
    | Open_confirm -> "OpenConfirm"
    | Established -> "Established"
    | Closed -> "Closed")

type down_reason =
  | Hold_timer_expired
  | Notification_received of Message.notification
  | Channel_broken
  | Stopped

let pp_down_reason ppf = function
  | Hold_timer_expired -> Fmt.string ppf "hold timer expired"
  | Notification_received n -> Fmt.pf ppf "notification %d/%d received" n.code n.subcode
  | Channel_broken -> Fmt.string ppf "channel broken"
  | Stopped -> Fmt.string ppf "stopped"

type t = {
  engine : Sim.Engine.t;
  channel : Channel.t;
  side : Channel.side;
  asn : Asn.t;
  router_id : Net.Ipv4.t;
  hold_time : int;
  name : string;
  mutable state : state;
  mutable peer : Message.open_msg option;
  mutable negotiated_hold : int option;
  mutable last_heard : Sim.Time.t;
  mutable keepalive_task : Sim.Engine.handle option;
  mutable hold_task : Sim.Engine.handle option;
  mutable established_cb : (Message.open_msg -> unit) option;
  mutable update_cb : (Message.update -> unit) option;
  mutable down_cb : (down_reason -> unit) option;
  mutable updates_sent : int;
  mutable updates_received : int;
}

let trace t fmt =
  Sim.Trace.emitf (Sim.Engine.trace t.engine) (Sim.Engine.now t.engine)
    ~category:"bgp" fmt

let cancel_timers t =
  (match t.keepalive_task with Some h -> Sim.Engine.cancel h | None -> ());
  (match t.hold_task with Some h -> Sim.Engine.cancel h | None -> ());
  t.keepalive_task <- None;
  t.hold_task <- None

let close t reason =
  if t.state <> Closed then begin
    trace t "%s: down (%a)" t.name pp_down_reason reason;
    t.state <- Closed;
    cancel_timers t;
    match t.down_cb with Some f -> f reason | None -> ()
  end

(* The hold timer is implemented as a self-rescheduling deadline check:
   rather than cancelling and re-arming on every received message, the
   check compares [last_heard + hold] with the clock and re-arms itself
   for the remaining interval. *)
let rec arm_hold_timer t =
  match t.negotiated_hold with
  | None | Some 0 -> ()
  | Some hold ->
    let deadline = Sim.Time.add t.last_heard (Sim.Time.of_sec (float_of_int hold)) in
    let delay = Sim.Time.sub deadline (Sim.Engine.now t.engine) in
    let delay = if Sim.Time.is_negative delay then Sim.Time.zero else delay in
    t.hold_task <-
      Some
        (Sim.Engine.schedule_after t.engine delay (fun () ->
             if t.state = Established || t.state = Open_confirm then begin
               let deadline =
                 Sim.Time.add t.last_heard (Sim.Time.of_sec (float_of_int hold))
               in
               if Sim.Time.(Sim.Engine.now t.engine >= deadline) then begin
                 Channel.send t.channel t.side Message.hold_timer_expired;
                 close t Hold_timer_expired
               end
               else arm_hold_timer t
             end))

let start_keepalives t =
  match t.negotiated_hold with
  | None | Some 0 -> ()
  | Some hold ->
    let interval = Sim.Time.of_sec (float_of_int hold /. 3.0) in
    t.keepalive_task <-
      Some
        (Sim.Engine.every t.engine ~interval (fun () ->
             if t.state = Established || t.state = Open_confirm then
               Channel.send t.channel t.side Message.Keepalive))

let negotiate_hold t (peer_open : Message.open_msg) =
  let hold = min t.hold_time peer_open.hold_time in
  t.negotiated_hold <- Some hold

let become_established t peer_open =
  t.state <- Established;
  trace t "%s: established with %a" t.name Asn.pp peer_open.Message.asn;
  match t.established_cb with Some f -> f peer_open | None -> ()

let handle_message t msg =
  if t.state <> Closed then begin
    t.last_heard <- Sim.Engine.now t.engine;
    match t.state, msg with
    | (Idle | Open_sent), Message.Open peer_open ->
      t.peer <- Some peer_open;
      negotiate_hold t peer_open;
      (* An OPEN arriving in Idle means the peer started first; answer
         with our own OPEN before confirming. *)
      if t.state = Idle then
        Channel.send t.channel t.side
          (Message.Open
             {
               version = 4;
               asn = t.asn;
               hold_time = t.hold_time;
               router_id = t.router_id;
             });
      Channel.send t.channel t.side Message.Keepalive;
      t.state <- Open_confirm;
      start_keepalives t;
      arm_hold_timer t
    | Open_confirm, Message.Keepalive ->
      (match t.peer with
      | Some peer_open -> become_established t peer_open
      | None -> close t (Notification_received { code = 5; subcode = 0; data = "" }))
    | Established, Message.Keepalive -> ()
    | Established, Message.Update u ->
      t.updates_received <- t.updates_received + 1;
      (match t.update_cb with Some f -> f u | None -> ())
    | _, Message.Notification n -> close t (Notification_received n)
    | Open_confirm, Message.Update _ ->
      (* FSM error: update before establishment. *)
      Channel.send t.channel t.side
        (Message.Notification { code = 5; subcode = 0; data = "" });
      close t (Notification_received { code = 5; subcode = 0; data = "" })
    | (Idle | Open_sent), (Message.Keepalive | Message.Update _) -> ()
    | (Established | Open_confirm), Message.Open _ -> ()
    | Closed, _ -> ()
  end

let create engine ~channel ~side ~asn ~router_id ?(hold_time = 90)
    ?(name = "session") () =
  let t =
    {
      engine;
      channel;
      side;
      asn;
      router_id;
      hold_time;
      name;
      state = Idle;
      peer = None;
      negotiated_hold = None;
      last_heard = Sim.Engine.now engine;
      keepalive_task = None;
      hold_task = None;
      established_cb = None;
      update_cb = None;
      down_cb = None;
      updates_sent = 0;
      updates_received = 0;
    }
  in
  Channel.attach channel side (handle_message t);
  Channel.on_break channel side (fun () -> close t Channel_broken);
  t

let start t =
  if t.state = Idle then begin
    Channel.send t.channel t.side
      (Message.Open
         { version = 4; asn = t.asn; hold_time = t.hold_time; router_id = t.router_id });
    t.state <- Open_sent
  end

let stop t =
  if t.state <> Closed then begin
    Channel.send t.channel t.side Message.cease;
    close t Stopped
  end

let state t = t.state
let name t = t.name
let peer t = t.peer
let negotiated_hold_time t = t.negotiated_hold

let on_established t f = t.established_cb <- Some f
let on_update t f = t.update_cb <- Some f
let on_down t f = t.down_cb <- Some f

let send_update t u =
  if t.state <> Established then
    invalid_arg (Fmt.str "Session %s: send_update while %a" t.name pp_state t.state);
  t.updates_sent <- t.updates_sent + 1;
  Channel.send t.channel t.side (Message.Update u)

let updates_sent t = t.updates_sent
let updates_received t = t.updates_received
