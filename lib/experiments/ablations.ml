type point = {
  label : string;
  value_ms : float;
  median_s : float;
  max_s : float;
}

let point_of_result label value_ms (result : Topology.result) =
  let samples = Topology.convergence_seconds result in
  let s = Stats.summarize samples in
  { label; value_ms; median_s = s.Stats.median; max_s = s.Stats.max }

let supercharged ~replicas ~n_prefixes =
  Topology.default_params ~mode:(Topology.Supercharged { replicas }) ~n_prefixes ()

let bfd_sweep ?(n_prefixes = 10_000) () =
  List.map
    (fun tx ->
      let params =
        {
          (supercharged ~replicas:1 ~n_prefixes) with
          Topology.bfd_tx_interval = Sim.Time.of_ms tx;
        }
      in
      point_of_result (Fmt.str "bfd tx=%dms" tx) (float_of_int tx) (Topology.run params))
    [10; 20; 50; 100; 200]

let flow_mod_sweep ?(n_prefixes = 10_000) () =
  List.map
    (fun ms ->
      let params =
        {
          (supercharged ~replicas:1 ~n_prefixes) with
          Topology.flow_mod_latency = Sim.Time.of_sec (ms /. 1000.0);
        }
      in
      point_of_result (Fmt.str "flow_mod=%.1fms" ms) ms (Topology.run params))
    [0.1; 1.0; 5.0; 10.0; 20.0]

type double_failure_report = {
  first_outage_s : float;
  second_outage_pairs_s : float;
  second_outage_triples_s : float;
}

let double_failure ?(n_prefixes = 2_000) () =
  let run group_size =
    let params =
      {
        (supercharged ~replicas:1 ~n_prefixes) with
        Topology.n_peers = 3;
        group_size;
        failure = Topology.Fail_two (Sim.Time.of_ms 200);
      }
    in
    Topology.run params
  in
  let worst_nth result pos =
    Array.fold_left
      (fun acc gaps ->
        match List.nth_opt gaps pos with
        | Some g -> max acc (Sim.Time.to_sec g)
        | None -> acc)
      0.0 result.Topology.outages
  in
  let pairs = run 2 and triples = run 3 in
  {
    first_outage_s = max (worst_nth pairs 0) (worst_nth triples 0);
    second_outage_pairs_s = worst_nth pairs 1;
    second_outage_triples_s = worst_nth triples 1;
  }

let pp_double_failure ppf r =
  Fmt.pf ppf
    "@[<v>double failure (primary, then the serving backup 200ms later):@,     first outage (both sizes): %.3fs@,     second outage, groups of 2: %.3fs (waits for the router's slow path)@,     second outage, groups of 3: %.3fs (one more Listing 2 rewrite)@]"
    r.first_outage_s r.second_outage_pairs_s r.second_outage_triples_s

type replica_report = {
  identical_groups : bool;
  identical_rules : bool;
  convergence_max_s : float;
}

let replicas ?(n_prefixes = 5_000) () =
  let result = Topology.run (supercharged ~replicas:2 ~n_prefixes) in
  let identical =
    match result.Topology.replica_digests with
    | [a; b] -> String.equal a b
    | _ -> false
  in
  let samples = Topology.convergence_seconds result in
  {
    identical_groups = identical;
    identical_rules = identical;
    convergence_max_s = (Stats.summarize samples).Stats.max;
  }

let pp_points ~header ppf points =
  Fmt.pf ppf "%s@." header;
  Fmt.pf ppf "%-18s %12s %12s@." "point" "median(s)" "max(s)";
  List.iter
    (fun p -> Fmt.pf ppf "%-18s %12.4f %12.4f@." p.label p.median_s p.max_s)
    points

let pp_replica_report ppf r =
  Fmt.pf ppf
    "replicas: identical groups=%b identical rules=%b convergence max=%.3fs"
    r.identical_groups r.identical_rules r.convergence_max_s
