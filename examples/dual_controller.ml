(* Reliability (§3 of the paper): two supercharger replicas, no shared
   state. Both receive the same BGP sessions and compute identical
   VNH/VMAC assignments and switch rules. This example builds the Fig. 4
   lab with two replicas and a real R1, then:

     1. loads a table and shows both replicas computed identical state;
     2. kills controller 1 (all its sessions drop) — the router keeps
        forwarding without a single FIB change, because controller 2's
        identical announcements are already the next-best routes;
     3. fails the primary provider — the surviving replica performs the
        Listing 2 reroute alone, within the usual ~150 ms budget.

   Run with: dune exec examples/dual_controller.exe *)

let sec = Sim.Time.of_sec

let () =
  let engine = Sim.Engine.create ~seed:7L () in
  let run_for s = Sim.Engine.run ~until:(Sim.Time.add (Sim.Engine.now engine) (sec s)) engine in

  (* R1, providers R2/R3, the switch and two controller replicas, each
     with its own switch attachment, BFD NIC and BGP sessions. *)
  let r1 =
    Router.Legacy.create engine ~name:"r1" ~asn:Experiments.Lab.asn_r1
      ~router_id:Experiments.Lab.ip_r1 ~interfaces:[Experiments.Lab.r1_uplink] ()
  in
  let lab = Experiments.Lab.create engine ~r1 ~n_peers:2 ~replicas:2 () in
  let c1 = lab.replicas.(0).controller and c2 = lab.replicas.(1).controller in
  Experiments.Lab.start lab;
  run_for 1.0;

  (* Load a small table from both providers. *)
  let entries = Workloads.Rib_gen.generate ~seed:7L ~count:500 in
  Array.iteri
    (fun i peer ->
      List.iter
        (Router.Peer.announce_to_all peer)
        (Workloads.Rib_gen.to_updates entries ~speaker_asn:(Experiments.Lab.asn_peer i)
           ~next_hop:(Experiments.Lab.ip_peer i)))
    lab.peers;
  run_for 5.0;

  let digest c =
    let groups = Supercharger.Controller.groups c in
    String.concat ";"
      (List.map
         (Fmt.str "%a" Supercharger.Backup_group.pp_binding)
         (Supercharger.Backup_group.all groups))
  in
  Fmt.pr "Replica state after the table load:@.";
  Fmt.pr "  controller1 groups: %s@." (digest c1);
  Fmt.pr "  controller2 groups: %s@." (digest c2);
  Fmt.pr "  identical: %b@.@." (String.equal (digest c1) (digest c2));
  Fmt.pr "  R1 FIB: %d entries after %d writes@.@."
    (Router.Fib.size (Router.Legacy.fib r1))
    (Router.Fib.applied_count (Router.Legacy.fib r1));

  (* Kill controller 1: all of its BGP sessions drop at once. *)
  let fib_writes_before = Router.Fib.applied_count (Router.Legacy.fib r1) in
  Bgp.Channel.break lab.replicas.(0).downstream;
  run_for 5.0;
  Fmt.pr "Controller 1 killed.@.";
  Fmt.pr "  R1 FIB writes caused by the failover: %d (identical routes from@."
    (Router.Fib.applied_count (Router.Legacy.fib r1) - fib_writes_before);
  Fmt.pr "  controller 2 were already next-best, so the data plane is untouched)@.@.";

  (* Now fail the primary provider; the surviving replica reroutes. *)
  let reroute_done = ref None in
  Supercharger.Controller.on_failover c2 (fun ~failed ~flow_mods ->
      reroute_done := Some (failed, flow_mods, Sim.Engine.now engine));
  let t_fail = Sim.Engine.now engine in
  Net.Link.set_up lab.peer_links.(0) false;
  run_for 5.0;
  (match !reroute_done with
  | Some (failed, flow_mods, at) ->
    Fmt.pr "Primary provider %a failed at t=%a:@." Net.Ipv4.pp failed Sim.Time.pp t_fail;
    Fmt.pr "  surviving replica rewrote %d rule(s) %a after the failure@." flow_mods
      Sim.Time.pp (Sim.Time.sub at t_fail)
  | None -> Fmt.pr "(!) no failover detected@.");
  Fmt.pr "  switch applied %d flow-mod(s) in total@."
    (Openflow.Switch.flow_mods_applied lab.switch)
