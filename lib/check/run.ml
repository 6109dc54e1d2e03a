module C = Supercharger.Controller
module Prov = Supercharger.Provisioner
module Lab = Experiments.Lab

type failure = {
  schedule : Schedule.t;
  shrunk : Schedule.t;
  violations : string list;
  reproduce : string;
}

let pp_failure ppf f =
  Fmt.pf ppf "invariant violations:@.";
  List.iter (fun v -> Fmt.pf ppf "  - %s@." v) f.violations;
  Fmt.pf ppf "original %a" Schedule.pp f.schedule;
  Fmt.pf ppf "shrunken counterexample (%d events) %a" (Schedule.length f.shrunk)
    Schedule.pp f.shrunk;
  Fmt.pf ppf "reproduce: %s@." f.reproduce

(* Upstream BGP channels take duplicates only: BGP has no
   retransmission, so losing or reordering an announcement would change
   the test input, not stress the system (see [Schedule]). *)
let dup_profile = Sim.Faults.profile ~duplicate:0.3 "dup"

(* --- the rig ----------------------------------------------------------- *)

type rig = {
  lab : Lab.t;
  engine : Sim.Engine.t;
  controller : C.t;
  link_up : bool array;
  channel_faults : Sim.Faults.t array;
  router_faults : Sim.Faults.t;
  of_faults : Sim.Faults.t;
  oracle : Oracle.t;
  subject : Invariants.subject;
}

(* One controller replica in the Fig. 4 lab, with a recording R1 and a
   fault injector on every message path. No import LOCAL_PREF policy:
   ranking must come from the announced attributes alone, so the oracle
   (which sees the same attributes) ranks identically. The linger is
   short so schedules exercise group GC and VNH/VMAC recycling within
   their dwell times. *)
let make_rig (sched : Schedule.t) =
  let seed = sched.Schedule.seed in
  let n_peers = sched.Schedule.n_peers in
  let engine = Sim.Engine.create ~seed () in
  let injector name salt =
    Sim.Faults.create engine ~name ~seed:(Int64.add seed (Int64.of_int salt))
      Sim.Faults.none
  in
  let of_faults = injector "of" 7777 in
  let lab =
    Lab.create engine ~of_codec:true ~of_faults ~import_local_pref:false
      ~controller:(fun create ->
        create ~group_linger:(Sim.Time.of_ms 400) ~bfd_debounce:(Sim.Time.of_ms 100)
          ~ack_timeout:(Sim.Time.of_ms 100) ~probe_interval:(Sim.Time.of_ms 100) ())
      ~n_peers ~replicas:1 ()
  in
  let replica = lab.Lab.replicas.(0) in
  let channel_faults =
    Array.mapi
      (fun i ch ->
        let inj = injector (Fmt.str "ch%d" i) (1000 * (i + 1)) in
        Bgp.Channel.set_faults ch inj;
        inj)
      replica.Lab.upstream
  in
  let router_faults = injector "router-ch" 8888 in
  Bgp.Channel.set_faults replica.Lab.downstream router_faults;
  let oracle = Oracle.create () in
  for i = 0 to n_peers - 1 do
    Oracle.declare_peer oracle ~id:i ~ip:(Lab.ip_peer i)
      ~mac:(Lab.mac_peer i) ~port:(Lab.port_peer i)
  done;
  Lab.start lab;
  Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) engine;
  let controller = replica.Lab.controller in
  let subject =
    {
      Invariants.controller;
      switch = lab.Lab.switch;
      oracle;
      probe_port = Lab.port_controller ~n_peers 0;
      probe_mac = Lab.mac_controller 0;
      probe_src = Lab.ip_controller 0;
      rule_priority = 100;
    }
  in
  {
    lab;
    engine;
    controller;
    link_up = Array.make n_peers true;
    channel_faults;
    router_faults;
    of_faults;
    oracle;
    subject;
  }

let run_ms rig ms =
  Sim.Engine.run
    ~until:(Sim.Time.add (Sim.Engine.now rig.engine) (Sim.Time.of_ms ms))
    rig.engine

(* --- quiescence detection ---------------------------------------------- *)

let bfd_agree rig =
  let ok = ref true in
  Array.iteri
    (fun i peer ->
      match C.bfd_session rig.controller (Router.Peer.ip peer) with
      | Some s ->
        if Bfd.Session.state s = Bfd.Packet.Up <> rig.link_up.(i) then ok := false
      | None -> ok := false)
    rig.lab.Lab.peers;
  !ok

let snapshot rig =
  ( Prov.flow_mods_sent (C.provisioner rig.controller),
    Openflow.Switch.flow_mods_applied rig.lab.Lab.switch,
    Supercharger.Algorithm.announced_count (C.algorithm rig.controller),
    C.failovers_handled rig.controller,
    Stack.length rig.lab.Lab.router_rx )

let quiet rig =
  C.quiescent rig.controller && Openflow.Switch.idle rig.lab.Lab.switch && bfd_agree rig

(* Advance the simulation in 25 ms slices until the rig is quiet and its
   activity snapshot held still for two consecutive slices. The slice is
   much longer than any message latency (200 µs) or rule-install path,
   and shorter than the periodic noise floor (BFD tx 40 ms never touches
   the snapshot). [false] = no quiescence within the 60 s budget. *)
let settle rig =
  let deadline = Sim.Time.add (Sim.Engine.now rig.engine) (Sim.Time.of_sec 60.0) in
  let rec loop stable last =
    if Sim.Time.( >= ) (Sim.Engine.now rig.engine) deadline then false
    else begin
      run_ms rig 25;
      let snap = snapshot rig in
      if quiet rig && last = Some snap then stable + 1 >= 2 || loop (stable + 1) last
      else loop 0 (Some snap)
    end
  in
  loop 0 None

(* --- the event interpreter --------------------------------------------- *)

(* Both the rig and the oracle consume the same concrete stream derived
   from the event's dense indices. *)
let prefix_of i = Net.Prefix.v (Fmt.str "40.%d.%d.0/24" (i / 256) (i mod 256))

let attrs_of rig ~peer ~pref ~prepend =
  let p = rig.lab.Lab.peers.(peer) in
  Bgp.Attributes.make ~local_pref:pref
    ~as_path:
      [ Bgp.Attributes.Seq (List.init (1 + prepend) (fun _ -> Router.Peer.asn p)) ]
    ~next_hop:(Router.Peer.ip p) ()

type ground_truth = Bgp.Attributes.t option array array (* peer -> prefix -> attrs *)

let send_route rig ~peer prefix attrs =
  Router.Peer.announce_to_all rig.lab.Lab.peers.(peer)
    { Bgp.Message.withdrawn = []; attrs = Some attrs; nlri = [ prefix ] }

let interpret rig (gt : ground_truth) ev =
  let now = Sim.Engine.now rig.engine in
  let window span_ms profile inj =
    Sim.Faults.during inj
      ~from:(Sim.Time.add now (Sim.Time.of_ms 1))
      ~until:(Sim.Time.add now (Sim.Time.of_ms (1 + span_ms)))
      profile
  in
  match (ev : Schedule.event) with
  | Announce { peer; prefix; pref; prepend } ->
    let attrs = attrs_of rig ~peer ~pref ~prepend in
    gt.(peer).(prefix) <- Some attrs;
    Oracle.announce rig.oracle ~peer (prefix_of prefix) attrs;
    send_route rig ~peer (prefix_of prefix) attrs
  | Withdraw { peer; prefix } ->
    gt.(peer).(prefix) <- None;
    Oracle.withdraw rig.oracle ~peer (prefix_of prefix);
    Router.Peer.announce_to_all rig.lab.Lab.peers.(peer)
      { Bgp.Message.withdrawn = [ prefix_of prefix ]; attrs = None; nlri = [] }
  | Peer_down p ->
    if rig.link_up.(p) then begin
      rig.link_up.(p) <- false;
      Oracle.peer_down rig.oracle p;
      Net.Link.set_up rig.lab.Lab.peer_links.(p) false
    end
  | Peer_up p ->
    if not rig.link_up.(p) then begin
      rig.link_up.(p) <- true;
      Oracle.peer_up rig.oracle p;
      Net.Link.set_up rig.lab.Lab.peer_links.(p) true
      (* Deliberately no re-announcement: the BGP session never reset,
         so a real peer stays silent. The controller must restore the
         routes from its own Adj-RIB-In (soft reconfiguration) — the
         checker exists to notice when it does not. *)
    end
  | Bfd_flap p ->
    if rig.link_up.(p) then begin
      match C.bfd_session rig.controller (Router.Peer.ip rig.lab.Lab.peers.(p)) with
      | Some session -> Bfd.Session.inject_state session Bfd.Packet.Down
      | None -> ()
    end
  | Of_blackout { span_ms } -> window span_ms Sim.Faults.blackout rig.of_faults
  | Router_faults { profile; span_ms } ->
    let p =
      match Sim.Faults.of_name profile with
      | Some p -> p
      | None -> invalid_arg (Fmt.str "Run: unknown fault profile %s" profile)
    in
    window span_ms p rig.router_faults
  | Channel_dup { peer; span_ms } ->
    window span_ms dup_profile rig.channel_faults.(peer)

(* --- execution --------------------------------------------------------- *)

let checkpoint_every = 8

let[@lint.domain_entry
     "checker schedule runner: ROADMAP item 6 fans the schedule matrix out \
      one schedule per domain; everything below this frame must be \
      domain-confined or guarded"] execute ?(mutate = false) (sched : Schedule.t)
    =
  let rig = make_rig sched in
  if mutate then Prov.mutate_skip_rewrite (C.provisioner rig.controller) true;
  let gt = Array.make_matrix sched.n_peers sched.n_prefixes None in
  let violations = ref [] in
  let record tag = function
    | [] -> ()
    | vs -> if !violations = [] then violations := List.map (fun v -> tag ^ ": " ^ v) vs
  in
  let checkpoint tag =
    if settle rig then record tag (Invariants.at_quiescence rig.subject)
    else
      record tag
        [ Fmt.str "no quiescence within 60s (flow_mods=%d announced=%d degraded=%b)"
            (Prov.flow_mods_sent (C.provisioner rig.controller))
            (Supercharger.Algorithm.announced_count (C.algorithm rig.controller))
            (C.degraded rig.controller) ]
  in
  List.iteri
    (fun i step ->
      if !violations = [] then begin
        interpret rig gt step.Schedule.ev;
        run_ms rig step.Schedule.dwell_ms;
        record
          (Fmt.str "after event %d (%a)" (i + 1) Schedule.pp_event step.Schedule.ev)
          (Invariants.transient rig.subject);
        if !violations = [] && (i + 1) mod checkpoint_every = 0 then
          checkpoint (Fmt.str "checkpoint at event %d" (i + 1))
      end)
    sched.steps;
  if !violations = [] then checkpoint "final checkpoint";
  !violations

let run_matrix ?(n_peers = 3) ?(n_prefixes = 12) ?(events = 30) ?(chaos = true)
    ?(mutate = false) ?progress ~seed ~schedules () =
  let rec go i =
    if i >= schedules then None
    else begin
      (match progress with Some f -> f i | None -> ());
      let sched =
        Schedule.generate
          ~seed:(Int64.add seed (Int64.of_int i))
          ~n_peers ~n_prefixes ~length:events ~chaos ()
      in
      match execute ~mutate sched with
      | [] -> go (i + 1)
      | first_violations ->
        let steps =
          Shrink.list sched.steps ~fails:(fun steps ->
              execute ~mutate { sched with steps } <> [])
        in
        let shrunk = { sched with steps } in
        let violations =
          match execute ~mutate shrunk with
          | [] -> first_violations (* unreachable: shrink preserves failure *)
          | vs -> vs
        in
        let reproduce =
          Fmt.str "sc_lab check --seed %Ld --schedules 1 --peers %d --prefixes %d \
                   --events %d%s%s"
            sched.seed n_peers n_prefixes events
            (if chaos then "" else " --no-chaos")
            (if mutate then " --mutate" else "")
        in
        Some { schedule = sched; shrunk; violations; reproduce }
    end
  in
  go 0
