(* Load-balancing supercharging (§1 of the paper): routers spread
   equal-cost traffic with a stateless hash over header bits; skewed
   traffic (here: destinations sharing their low byte, a typical
   alignment artefact) collapses onto few next hops. The supercharged
   switch overrides the decision per flow, least-loaded first.

   Run with: dune exec examples/load_balance.exe *)

let ip = Net.Ipv4.of_string_exn

let peer octet port =
  {
    Supercharger.Provisioner.pi_ip = ip (Fmt.str "10.0.0.%d" octet);
    pi_mac = Net.Mac.of_string_exn (Fmt.str "00:bb:00:00:00:0%d" octet);
    pi_port = port;
  }

let () =
  let n_targets = 4 in
  let n_flows = 10_000 in
  let rng = Sim.Rng.create ~seed:3L in
  (* Skewed workload: destinations are servers at aligned addresses
     (low byte in a handful of values), like real hosting racks. *)
  let flows =
    Array.init n_flows (fun i ->
        let low = [|1; 16; 17; 32|].(Sim.Rng.int rng 4) in
        {
          Supercharger.Load_balancer.fk_src = ip "192.168.0.100";
          fk_dst = Net.Ipv4.of_octets 1 (Sim.Rng.int rng 200) (Sim.Rng.int rng 250) low;
          fk_src_port = 1024 + (i mod 50_000);
          fk_dst_port = 443;
        })
  in

  (* The router's stateless hash. *)
  let hash_loads = Array.make n_targets 0 in
  Array.iter
    (fun key ->
      let b = Supercharger.Load_balancer.static_hash ~n_targets key in
      hash_loads.(b) <- hash_loads.(b) + 1)
    flows;

  (* The supercharged switch. *)
  let lb =
    Supercharger.Load_balancer.create
      ~allocator:(Supercharger.Vnh.create ())
      ~send:(fun _ -> ())
  in
  for t = 0 to n_targets - 1 do
    Supercharger.Load_balancer.add_target lb (peer (2 + t) (2 + t))
  done;
  Array.iter (fun key -> ignore (Supercharger.Load_balancer.assign lb key)) flows;

  Fmt.pr "%d flows over %d equal-cost next hops (skewed destinations):@.@."
    n_flows n_targets;
  Fmt.pr "%-10s %20s %20s@." "next hop" "router hash" "supercharged";
  for t = 0 to n_targets - 1 do
    Fmt.pr "%-10d %20d %20d@." (t + 1) hash_loads.(t)
      (Supercharger.Load_balancer.load lb (ip (Fmt.str "10.0.0.%d" (2 + t))))
  done;
  let mean = float_of_int n_flows /. float_of_int n_targets in
  let hash_imbalance = float_of_int (Array.fold_left max 0 hash_loads) /. mean in
  Fmt.pr "@.imbalance (max/mean): router hash %.2f, supercharged %.2f@."
    hash_imbalance
    (Supercharger.Load_balancer.imbalance lb);
  Fmt.pr "switch rules installed: %d (one per flow + %d defaults)@."
    (Supercharger.Load_balancer.rules_sent lb)
    n_targets
