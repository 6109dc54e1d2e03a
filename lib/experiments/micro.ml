(* This benchmark times the real host: wall-clock reads are its whole
   point, not leaked ambient state. Nothing here feeds the simulation. *)
[@@@lint.allow "no-ambient-nondeterminism"]

type report = {
  updates : int;
  emissions : int;
  backup_groups : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  max_us : float;
  total_s : float;
}

let run ?(count = 500_000) () =
  let next_hops = [| Net.Ipv4.of_octets 10 0 0 2; Net.Ipv4.of_octets 10 0 0 3 |] in
  let asns = [| Bgp.Asn.of_int 65002; Bgp.Asn.of_int 65003 |] in
  let events = Workloads.Churn.full_table_race ~seed:42L ~count ~next_hops ~asns in
  let rib = Bgp.Rib.create () in
  let allocator = Supercharger.Vnh.create () in
  let groups = Supercharger.Backup_group.create allocator in
  let algorithm = Supercharger.Algorithm.create groups in
  let router_ids = next_hops in
  (* Peer 0's routes are preferred, as R1 prefers R2 in the paper. *)
  let local_pref = [| 200; 100 |] in
  let durations = Array.make (List.length events) 0.0 in
  let emissions = ref 0 in
  let i = ref 0 in
  let t_start = Unix.gettimeofday () in
  List.iter
    (fun (ev : Workloads.Churn.event) ->
      let update =
        match ev.update.Bgp.Message.attrs with
        | Some attrs ->
          {
            ev.update with
            Bgp.Message.attrs =
              Some { attrs with Bgp.Attributes.local_pref = Some local_pref.(ev.peer) };
          }
        | None -> ev.update
      in
      let t0 = Unix.gettimeofday () in
      let changes =
        Bgp.Rib.apply_update rib ~peer_id:ev.peer
          ~peer_router_id:router_ids.(ev.peer) update
      in
      let out = Supercharger.Algorithm.process_changes algorithm changes in
      emissions := !emissions + List.length out;
      durations.(!i) <- (Unix.gettimeofday () -. t0) *. 1e6;
      incr i)
    events;
  let total_s = Unix.gettimeofday () -. t_start in
  {
    updates = !i;
    emissions = !emissions;
    backup_groups = Supercharger.Backup_group.count groups;
    mean_us = Array.fold_left ( +. ) 0.0 durations /. float_of_int (max 1 !i);
    p50_us = Stats.percentile durations 50.0;
    p99_us = Stats.percentile durations 99.0;
    max_us = Stats.percentile durations 100.0;
    total_s;
  }

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>controller micro-benchmark: %d updates -> %d emissions, %d backup-groups@,\
     per-update processing: mean=%.2fus p50=%.2fus p99=%.2fus max=%.2fus (total %.2fs)@,\
     paper (unoptimised python): p99=125ms, max=0.8s@]"
    r.updates r.emissions r.backup_groups r.mean_us r.p50_us r.p99_us r.max_us
    r.total_s
