(* ctrl-churn: the controller's RIB and Listing 1 at Internet shape, with
   no simulator. Set-up loads 100 skewed peer views of a
   generate_internet table; one operation is one UPDATE of a
   route-collector-shaped train through Bgp.Rib.apply_update and
   Algorithm.process_changes. After the timed train, a 50% withdrawal
   storm on the full-feed peer is replayed twice and 20 one-percent peers
   lose their sessions. *)

let peer_ip i = Net.Ipv4.of_octets 10 9 (i / 200) (1 + (i mod 200))

type state = {
  rib : Bgp.Rib.t;
  algo : Supercharger.Algorithm.t;
  groups : Supercharger.Backup_group.t;
  created : int ref;  (* backup-groups allocated so far *)
  routes : int;
}

(* Every peer announces its view (Experiments.Ribscale's load section). *)
let load ~entries ~peers ~next_hops ~asns =
  let rib = Bgp.Rib.create () in
  let groups = Supercharger.Backup_group.create (Supercharger.Vnh.create ()) in
  let created = ref 0 in
  Supercharger.Backup_group.on_create groups (fun _ -> incr created);
  let algo = Supercharger.Algorithm.create groups in
  let routes = ref 0 in
  for peer = 0 to peers - 1 do
    let share_pct = Workloads.Rib_gen.view_share ~peers peer in
    let attrs_of = Workloads.Churn.route_attrs ~asn:asns.(peer) ~next_hop:next_hops.(peer) in
    Array.iteri
      (fun i (e : Workloads.Rib_gen.entry) ->
        if Workloads.Rib_gen.in_view ~peer ~share_pct i then begin
          incr routes;
          match
            Bgp.Rib.announce rib e.prefix
              (Bgp.Route.make ~peer_id:peer ~peer_router_id:next_hops.(peer) (attrs_of e))
          with
          | Some c -> ignore (Supercharger.Algorithm.process_changes algo [c])
          | None -> ()
        end)
      entries
  done;
  { rib; algo; groups; created; routes = !routes }

(* Listing 1's output agrees with the RIB: no candidate, no
   announcement; one candidate, its own next hop; two or more, the VNH
   of the group of the first two. *)
let announced_consistent st prefix =
  let nh = Bgp.Route.next_hop in
  match Bgp.Rib.ordered st.rib prefix, Supercharger.Algorithm.last_announced st.algo prefix with
  | [], None -> true
  | [only], Some attrs -> Net.Ipv4.equal attrs.Bgp.Attributes.next_hop (nh only)
  | first :: second :: _, Some attrs -> (
    match Supercharger.Algorithm.group_of st.algo prefix with
    | Some b ->
      List.equal Net.Ipv4.equal b.next_hops [nh first; nh second]
      && Net.Ipv4.equal attrs.Bgp.Attributes.next_hop b.vnh
    | None -> false)
  | [], Some _ | _ :: _, None -> false

let run (ctx : Harness.ctx) =
  let r = ctx.r and tr = ctx.tr in
  let count = Harness.pick ctx ~full:250_000 ~tiny:4_000 in
  let peers = Harness.pick ctx ~full:100 ~tiny:12 in
  let victims = List.init (Harness.pick ctx ~full:20 ~tiny:2) (fun i -> 10 + i) in
  let train_chunk = Harness.pick ctx ~full:20_000 ~tiny:2_000 in
  let seed = Int64.of_int ctx.seed in
  let s_apply = Trace.site tr "bgp.rib.apply_update"
  and s_algo = Trace.site tr "core.algorithm.process_changes"
  and s_withdraw = Trace.site tr "bgp.rib.withdraw_peer" in
  let entries =
    Harness.generate ctx (fun () -> Workloads.Rib_gen.generate_internet ~seed ~count)
  in
  let next_hops = Array.init peers peer_ip in
  let asns = Array.init peers (fun i -> Bgp.Asn.of_int (64000 + (i mod 1500))) in
  let st = Harness.setup ctx (fun () -> load ~entries ~peers ~next_hops ~asns) in
  Report.extra r "bgp.rib.load_routes_per_s" ~unit_:"1/s"
    (float_of_int st.routes /. Option.get (Report.find r "setup_s"));
  let apply (ev : Workloads.Churn.event) =
    Trace.enter tr s_apply;
    let changes =
      Bgp.Rib.apply_update st.rib ~peer_id:ev.peer ~peer_router_id:next_hops.(ev.peer) ev.update
    in
    Trace.leave tr;
    let n = List.length changes in
    Trace.enter tr s_algo;
    ignore (Supercharger.Algorithm.process_changes st.algo changes);
    Trace.leave_items tr n
  in
  (* The timed train, in chunks generated between measurements. *)
  let lp = Harness.loop ~n_ops:(Harness.op_count ctx ~nominal_per_s:200_000.0) () in
  let visits0 = Bgp.Rib.candidate_visits st.rib in
  let emissions0 = Supercharger.Algorithm.emissions_total st.algo in
  let op_id = ref 0 in
  let k = ref 0 in
  while Harness.more lp do
    let train =
      Harness.generate ctx (fun () ->
          Workloads.Churn.update_train
            ~seed:(Int64.add (Int64.mul seed 7919L) (Int64.of_int !k))
            ~entries ~next_hops ~asns ~events:train_chunk)
    in
    Harness.chunk ctx !k;
    let rec go = function
      | ev :: rest when Harness.more lp ->
        Trace.op tr !op_id;
        incr op_id;
        Harness.timed_op lp tr (fun () -> apply ev);
        go rest
      | _ -> ()
    in
    go train;
    incr k
  done;
  let train_ops = Harness.ops_done lp in
  Harness.finish ctx lp;
  let per_op x = float_of_int x /. float_of_int train_ops in
  Report.layer r ~exact:true "bgp.rib.candidate_visits_per_op"
    (per_op (Bgp.Rib.candidate_visits st.rib - visits0));
  Report.layer r ~exact:true "core.algorithm.emissions_per_op"
    (per_op (Supercharger.Algorithm.emissions_total st.algo - emissions0));
  let sampled = ref true in
  Array.iteri
    (fun i (e : Workloads.Rib_gen.entry) ->
      if i mod 64 = 0 && not (announced_consistent st e.prefix) then sampled := false)
    entries;
  Report.check r "churn.listing1_matches_rib" !sampled;
  (* The tail: storms and session losses, traced whole in a traced run. *)
  let storm =
    Harness.generate ctx (fun () ->
        Workloads.Churn.storm ~seed:(Int64.add seed 29L) ~entries ~share_pct:50
          ~next_hop:next_hops.(0) ~asn:asns.(0) ~peer:0)
  in
  Trace.set_enabled tr (Harness.traced ctx);
  let storm_pass () =
    let before = !(st.created) in
    let (), s =
      Harness.time (fun () ->
          List.iter
            (fun ev ->
              Trace.op tr !op_id;
              incr op_id;
              apply ev)
            storm)
    in
    (!(st.created) - before, s)
  in
  let created_first, storm_s = storm_pass () in
  let created_repeat, repeat_s = storm_pass () in
  let storm_ok = created_repeat = 0 in
  Report.check r "churn.repeated_storm_creates_no_group" storm_ok;
  let down_ms = Array.make (List.length victims) 0.0 in
  let visits = ref 0 and withdrawn = ref 0 and down_failed = ref 0 in
  List.iteri
    (fun j victim ->
      let routes = Bgp.Rib.peer_prefix_count st.rib ~peer_id:victim in
      let v0 = Bgp.Rib.candidate_visits st.rib in
      Trace.op tr !op_id;
      incr op_id;
      let (), s =
        Harness.time (fun () ->
            Trace.enter tr s_withdraw;
            let changes = Bgp.Rib.withdraw_peer st.rib ~peer_id:victim in
            Trace.leave_items tr routes;
            let n = List.length changes in
            Trace.enter tr s_algo;
            ignore (Supercharger.Algorithm.process_changes st.algo changes);
            Trace.leave_items tr n)
      in
      let v = Bgp.Rib.candidate_visits st.rib - v0 in
      down_ms.(j) <- s *. 1e3;
      visits := !visits + v;
      withdrawn := !withdrawn + routes;
      let ratio = if routes > 0 then float_of_int v /. float_of_int routes else 0.0 in
      if Bgp.Rib.peer_prefix_count st.rib ~peer_id:victim <> 0 || ratio > 16.0 then incr down_failed)
    victims;
  Trace.set_enabled tr false;
  let tail_s = storm_s +. repeat_s +. (Array.fold_left ( +. ) 0.0 down_ms /. 1e3) in
  Report.check r "churn.peer_down_empties_peer_within_16_visits" (!down_failed = 0);
  Report.ops r ~attempted:(train_ops + 2 + List.length victims)
    ~failed:(!down_failed + if storm_ok then 0 else 1);
  Report.layer r ~exact:true "bgp.rib.peer_down_visit_ratio"
    (if !withdrawn > 0 then float_of_int !visits /. float_of_int !withdrawn else 0.0);
  Report.layer r ~exact:true "core.backup_groups" (float_of_int (Supercharger.Backup_group.count st.groups));
  Report.extra r "peer_down_ms" ~unit_:"ms" (Stat.median down_ms);
  Report.extra r "storm_per_s" ~unit_:"1/s" (float_of_int (List.length storm) /. storm_s);
  Report.extra r ~exact:true "storm_groups_created" ~unit_:"count" (float_of_int created_first);
  Report.extra r ~exact:true "storm_groups_repeat" ~unit_:"count" (float_of_int created_repeat);
  Report.extra r ~exact:true "routes_loaded" ~unit_:"count" (float_of_int st.routes);
  if Harness.traced ctx then
    Harness.attribute ctx ~wall_s:((float_of_int lp.traced_ns /. 1e9) +. tail_s)
