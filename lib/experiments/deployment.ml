type scenario =
  | Extern_fail
  | Srlg_cut
  | Partition

let all_scenarios = [ Extern_fail; Srlg_cut; Partition ]

let scenario_name = function
  | Extern_fail -> "extern-fail"
  | Srlg_cut -> "srlg"
  | Partition -> "partition"

type point = {
  n_supercharged : int;
  supercharged : int list;
  pct : float;
  mean_outage_ms : float;
  max_outage_ms : float;
  win_pct : float option;
      (** None when plain and full deployment are indistinguishable *)
}

type row = {
  scenario : scenario;
  seed : int64;
  routers : int;
  prefixes : int;
  points : point list;  (** in increasing coverage order *)
}

(* Deployment order: egress hosts first (the routers whose failures the
   controller must repair remotely), then the rest by index — the order
   an operator chasing convergence wins would pick. *)
let deployment_order n =
  let egresses = List.sort_uniq Int.compare [ 0; n / 2; n / 4 ] in
  egresses
  @ List.filter (fun i -> not (List.mem i egresses)) (List.init n (fun i -> i))

let prefix_of i = Net.Prefix.make (Net.Ipv4.of_octets 203 (i / 256) (i mod 256) 0) 24

let spec_for ~routers ~supercharged =
  Topo.Spec.ring ~routers
    ~externs:[ (0, 200); (routers / 2, 150); (routers / 4, 100) ]
    ~supercharged ()

(* One fabric, one fault scenario, one coverage level: returns
   (mean, max) outage across probe flows in milliseconds. *)
let run_point ~scenario ~seed ~routers ~n_prefixes ~probes ~window ~supercharged =
  let engine = Sim.Engine.create ~seed () in
  let spec = spec_for ~routers ~supercharged in
  let fabric = Topo.Fabric.build engine spec in
  Topo.Fabric.start fabric;
  let prefixes = List.init n_prefixes prefix_of in
  for k = 0 to Topo.Spec.n_externs spec - 1 do
    Topo.Fabric.announce_extern fabric ~extern:k prefixes
  done;
  if not (Topo.Fabric.settle fabric ~budget:(Sim.Time.of_sec 120.) ()) then
    invalid_arg "Deployment.run: fabric failed to settle at bring-up";
  let t0 = Sim.Engine.now engine in
  (match scenario with
  | Extern_fail ->
    (* The best egress dies: every router must fall back to the
       antipode's extern — remote failure repair. *)
    Topo.Fabric.fail_extern fabric ~extern:0
  | Srlg_cut ->
    (* One conduit cut takes both ring links at router 0 at once. *)
    Topo.Fabric.fail_srlg fabric ~srlg:0
  | Partition ->
    (* The controller loses router 0 for 300 ms, and the best egress
       dies inside the window — repair must wait for the heal unless
       the router can act locally. *)
    Topo.Fabric.partition fabric ~routers:[ 0 ] ~from:t0
      ~until:(Sim.Time.add t0 (Sim.Time.of_ms 300));
    ignore
      (Sim.Engine.schedule_after engine (Sim.Time.of_ms 50) (fun () ->
           Topo.Fabric.fail_extern fabric ~extern:0)));
  let flows =
    List.concat_map
      (fun ingress -> List.init probes (fun i -> (ingress, prefix_of i)))
      (List.init routers (fun i -> i))
  in
  let outages =
    Topo.Fabric.measure fabric ~flows ~step:(Sim.Time.of_ms 5)
      ~until:(Sim.Time.add t0 window)
    |> List.map (fun (_, outage) -> Sim.Time.to_ms outage)
  in
  let n = float_of_int (List.length outages) in
  let mean = List.fold_left ( +. ) 0. outages /. n in
  let worst = List.fold_left Float.max 0. outages in
  (mean, worst)

let default_seeds = [ 11L; 12L; 13L ]

let run ?(routers = 8) ?(n_prefixes = 200) ?(probes = 6) ?coverage
    ?(seeds = default_seeds) ?(scenarios = all_scenarios)
    ?(window = Sim.Time.of_sec 2.) ?progress () =
  if probes > n_prefixes then invalid_arg "Deployment.run: probes > prefixes";
  let order = deployment_order routers in
  let coverage =
    match coverage with
    | Some c ->
      List.iter
        (fun k ->
          if k < 0 || k > routers then
            invalid_arg (Fmt.str "Deployment.run: coverage %d outside 0..%d" k routers))
        c;
      List.sort_uniq Int.compare c
    | None -> List.init (routers + 1) (fun k -> k)
  in
  let note fmt = Fmt.kstr (fun s -> match progress with Some f -> f s | None -> ()) fmt in
  List.concat_map
    (fun scenario ->
      List.map
        (fun seed ->
          let measured =
            List.map
              (fun k ->
                let supercharged = List.filteri (fun i _ -> i < k) order in
                note "%s seed=%Ld coverage=%d/%d" (scenario_name scenario) seed k
                  routers;
                let mean, worst =
                  run_point ~scenario ~seed ~routers ~n_prefixes ~probes ~window
                    ~supercharged
                in
                (k, supercharged, mean, worst))
              coverage
          in
          let outage_of k =
            List.find_map
              (fun (k', _, mean, _) -> if k' = k then Some mean else None)
              measured
          in
          let plain = outage_of 0 and full = outage_of routers in
          let points =
            List.map
              (fun (k, supercharged, mean, worst) ->
                let win_pct =
                  match (plain, full) with
                  | Some p, Some f when p -. f > 0.5 ->
                    Some ((p -. mean) /. (p -. f) *. 100.)
                  | Some _, Some _ | None, _ | _, None -> None
                in
                {
                  n_supercharged = k;
                  supercharged;
                  pct = 100. *. float_of_int k /. float_of_int routers;
                  mean_outage_ms = mean;
                  max_outage_ms = worst;
                  win_pct;
                })
              measured
          in
          { scenario; seed; routers; prefixes = n_prefixes; points })
        seeds)
    scenarios

let to_json rows =
  Obs.Json.List
    (List.concat_map
       (fun row ->
         List.map
           (fun p ->
             Obs.Json.Obj
               [
                 ("routers", Obs.Json.Int row.routers);
                 ("prefixes", Obs.Json.Int row.prefixes);
                 ("scenario", Obs.Json.String (scenario_name row.scenario));
                 ("seed", Obs.Json.Int (Int64.to_int row.seed));
                 ( "supercharged",
                   Obs.Json.List (List.map (fun i -> Obs.Json.Int i) p.supercharged) );
                 ("pct", Obs.Json.Float p.pct);
                 ("mean_outage_ms", Obs.Json.Float p.mean_outage_ms);
                 ("max_outage_ms", Obs.Json.Float p.max_outage_ms);
                 ( "win_pct",
                   match p.win_pct with
                   | Some w -> Obs.Json.Float w
                   | None -> Obs.Json.Null );
               ])
           row.points)
       rows)

let pp_table ppf rows =
  List.iter
    (fun row ->
      Fmt.pf ppf "scenario %-12s seed %Ld (%d routers, %d prefixes)@."
        (scenario_name row.scenario) row.seed row.routers row.prefixes;
      Fmt.pf ppf "  %10s %8s %14s %14s %8s@." "deployed" "pct" "mean outage" "max outage"
        "win";
      List.iter
        (fun p ->
          Fmt.pf ppf "  %10d %7.0f%% %12.1fms %12.1fms %a@." p.n_supercharged p.pct
            p.mean_outage_ms p.max_outage_ms
            Fmt.(option ~none:(any "      -") (fmt "%6.1f%%"))
            p.win_pct)
        row.points;
      Fmt.pf ppf "@.")
    rows

let to_csv rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "scenario,seed,routers,prefixes,n_supercharged,pct,mean_outage_ms,max_outage_ms,win_pct\n";
  List.iter
    (fun row ->
      List.iter
        (fun p ->
          Buffer.add_string buf
            (Fmt.str "%s,%Ld,%d,%d,%d,%.1f,%.3f,%.3f,%s\n"
               (scenario_name row.scenario) row.seed row.routers row.prefixes
               p.n_supercharged p.pct p.mean_outage_ms p.max_outage_ms
               (match p.win_pct with Some w -> Fmt.str "%.1f" w | None -> "")))
        row.points)
    rows;
  Buffer.contents buf
