(* sc_lab: command-line front end to the convergence lab.

   Runs a single Fig. 4 experiment with every knob exposed, prints the
   paper-style summary and (optionally) the simulation event trace.

     dune exec bin/sc_lab.exe -- run --prefixes 10000 --mode supercharged
     dune exec bin/sc_lab.exe -- run --mode plain --trace --flows 10
     dune exec bin/sc_lab.exe -- micro --count 100000
     dune exec bin/sc_lab.exe -- fig5 --sizes 1000,10000 --reps 2
     dune exec bin/sc_lab.exe -- ablations *)

open Cmdliner

(* Every count flag: zero or a negative number is a usage error that
   names the flag, not an exception deep inside a run. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ | None -> Error (`Msg (Fmt.str "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Fmt.int)

(* Latencies in milliseconds: zero is allowed, a negative or non-finite
   number is a usage error. *)
let nonneg_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x >= 0.0 -> Ok x
    | Some _ | None -> Error (`Msg (Fmt.str "expected a non-negative number, got %S" s))
  in
  Arg.conv (parse, Fmt.float)

(* The library rejects inputs it cannot run with [Invalid_argument]
   (for example "need >= 6 routers"). Report that as a usage error
   (exit 124), as cmdliner reports a bad value, rather than as an
   uncaught exception (exit 125). It blames the flags among [flags]
   whose name the message mentions ("n_prefixes" mentions '--prefixes'),
   or all of them when it mentions none. *)
let input_checked ~flags run =
  match run () with
  | () -> `Ok ()
  | exception Invalid_argument msg ->
    let mentions flag =
      let name = String.sub flag 2 (String.length flag - 2) in
      let n = String.length name in
      let rec at i = i + n <= String.length msg && (String.sub msg i n = name || at (i + 1)) in
      at 0
    in
    let blamed = match List.filter mentions flags with [] -> flags | fs -> fs in
    let names = String.concat ", " (List.map (Fmt.str "'%s'") blamed) in
    `Error (true, Fmt.str "option %s: %s" names msg)

let mode_conv =
  let parse = function
    | "plain" | "non-supercharged" -> Ok Experiments.Topology.Plain
    | "supercharged" | "super" -> Ok (Experiments.Topology.Supercharged { replicas = 1 })
    | "supercharged2" | "dual" -> Ok (Experiments.Topology.Supercharged { replicas = 2 })
    | s -> Error (`Msg (Fmt.str "unknown mode %S (plain|supercharged|dual)" s))
  in
  let print ppf m = Experiments.Topology.pp_mode ppf m in
  Arg.conv (parse, print)

let prefixes_arg =
  Arg.(value & opt pos_int 10_000 & info ["prefixes"; "n"] ~docv:"N" ~doc:"Table size.")

let mode_arg =
  Arg.(
    value
    & opt mode_conv (Experiments.Topology.Supercharged { replicas = 1 })
    & info ["mode"] ~docv:"MODE" ~doc:"plain, supercharged or dual.")

let flows_arg =
  Arg.(value & opt pos_int 100 & info ["flows"] ~docv:"N" ~doc:"Monitored flows.")

let seed_arg =
  Arg.(value & opt int64 42L & info ["seed"] ~docv:"SEED" ~doc:"Simulation seed.")

let trace_arg =
  Arg.(value & flag & info ["trace"] ~doc:"Print the event trace around the failure.")

let dense_arg =
  Arg.(
    value & flag
    & info ["dense"]
        ~doc:"Simulate every packet instead of event-driven probing (small runs only).")

let bfd_tx_arg =
  Arg.(value & opt pos_int 40 & info ["bfd-tx"] ~docv:"MS" ~doc:"BFD transmit interval (ms).")

let flowmod_arg =
  Arg.(
    value & opt nonneg_float 2.0
    & info ["flow-mod-latency"] ~docv:"MS" ~doc:"Switch rule installation latency (ms).")

let peers_arg =
  Arg.(value & opt pos_int 2 & info ["peers"] ~docv:"N" ~doc:"Number of provider peers (2-8).")

let group_size_arg =
  Arg.(value & opt pos_int 2 & info ["group-size"] ~docv:"K" ~doc:"Backup-group tuple size.")

let failure_conv =
  let parse = function
    | "primary" -> Ok Experiments.Topology.Fail_primary
    | "backup" -> Ok Experiments.Topology.Fail_backup
    | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "two" -> (
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some ms when ms >= 0 -> Ok (Experiments.Topology.Fail_two (Sim.Time.of_ms ms))
        | Some _ | None -> Error (`Msg "two:<delay-ms> expected, delay >= 0"))
      | _ -> Error (`Msg (Fmt.str "unknown failure %S (primary|backup|two:MS)" s)))
  in
  Arg.conv (parse, Experiments.Topology.pp_failure)

let failure_arg =
  Arg.(
    value
    & opt failure_conv Experiments.Topology.Fail_primary
    & info ["failure"] ~docv:"SCENARIO"
        ~doc:"primary (default), backup, or two:MS (primary then the serving peer MS later).")

let wire_arg =
  Arg.(
    value & flag
    & info ["bgp-wire"]
        ~doc:"Run every BGP session through the RFC 4271 codec with TCP-like fragmentation.")

let pcap_arg =
  Arg.(
    value
    & opt (some string) None
    & info ["pcap"] ~docv:"FILE" ~doc:"Capture R1's uplink to a pcap file.")

let run_cmd =
  let run n_prefixes mode flows seed trace dense bfd_tx flowmod_ms n_peers group_size
      failure pcap bgp_wire =
    input_checked ~flags:["--peers"; "--group-size"; "--failure"] @@ fun () ->
    let params = Experiments.Topology.default_params ~mode ~n_prefixes () in
    let params =
      {
        params with
        Experiments.Topology.monitored_flows = flows;
        seed;
        trace;
        traffic = (if dense then Experiments.Topology.Dense else Experiments.Topology.Event_driven);
        bfd_tx_interval = Sim.Time.of_ms bfd_tx;
        flow_mod_latency = Sim.Time.of_sec (flowmod_ms /. 1000.0);
        n_peers;
        group_size;
        failure;
        pcap;
        bgp_wire;
      }
    in
    let result = Experiments.Topology.run params in
    Fmt.pr "%a@." Experiments.Topology.pp_result result;
    Fmt.pr "events=%d probes=%d@." result.Experiments.Topology.events
      result.Experiments.Topology.probes;
    (match failure with
    | Experiments.Topology.Fail_two _ ->
      Array.iteri
        (fun i gaps ->
          Fmt.pr "flow#%d outages: %a@." i
            Fmt.(list ~sep:comma Sim.Time.pp)
            gaps)
        result.Experiments.Topology.outages
    | Experiments.Topology.Fail_primary | Experiments.Topology.Fail_backup -> ());
    (match pcap with
    | Some path -> Fmt.pr "pcap written to %s@." path
    | None -> ());
    if trace then begin
      Fmt.pr "@.trace around the failure (t_fail=%a):@." Sim.Time.pp
        result.Experiments.Topology.t_fail;
      List.iter
        (fun (e : Sim.Trace.entry) ->
          let dt = Sim.Time.sub e.time result.Experiments.Topology.t_fail in
          if
            Sim.Time.(dt >= Sim.Time.of_ms (-5))
            && Sim.Time.(dt <= Sim.Time.of_sec 2.0)
            && e.category <> "probe" && e.category <> "sink" && e.category <> "fib"
          then Fmt.pr "  %+10.3fms %-10s %s@." (Sim.Time.to_ms dt) e.category e.message)
        result.Experiments.Topology.trace_entries
    end;
    let convergence = result.Experiments.Topology.convergence in
    let lost = Array.fold_left (fun n c -> if Option.is_none c then n + 1 else n) 0 convergence in
    if lost > 0 then begin
      Fmt.epr "sc_lab run: %d of %d flows never recovered@." lost (Array.length convergence);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run one convergence experiment (Fig. 4 lab). Exits 1 if any flow never recovers.")
    Term.(
      ret
        (const run $ prefixes_arg $ mode_arg $ flows_arg $ seed_arg $ trace_arg
        $ dense_arg $ bfd_tx_arg $ flowmod_arg $ peers_arg $ group_size_arg
        $ failure_arg $ pcap_arg $ wire_arg))

let micro_cmd =
  let count_arg =
    Arg.(value & opt pos_int 500_000 & info ["count"] ~docv:"N" ~doc:"Prefixes per peer.")
  in
  let run count =
    Fmt.pr "%a@." Experiments.Micro.pp_report (Experiments.Micro.run ~count ())
  in
  Cmd.v
    (Cmd.info "micro" ~doc:"Controller per-update processing latency (S4).")
    Term.(const run $ count_arg)

let fig5_cmd =
  let sizes_arg =
    Arg.(
      value
      & opt (list pos_int) Experiments.Fig5.paper_sizes
      & info ["sizes"] ~docv:"N,N,..." ~doc:"Prefix counts to sweep.")
  in
  let reps_arg =
    Arg.(value & opt pos_int 1 & info ["reps"] ~docv:"N" ~doc:"Repetitions per point.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info ["csv"] ~docv:"FILE" ~doc:"Also write the rows as CSV.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info ["json"] ~docv:"FILE"
          ~doc:"Also write the rows as JSON (schema bench/v1).")
  in
  let run sizes repetitions flows csv json =
    let rows =
      Experiments.Fig5.run ~sizes ~repetitions ~monitored_flows:flows
        ~progress:(fun m -> Fmt.epr "%s@." m)
        ()
    in
    Experiments.Fig5.pp_table Fmt.stdout rows;
    Fmt.pr "@.";
    Experiments.Fig5.pp_ascii_figure Fmt.stdout rows;
    (match csv with
    | Some path ->
      let oc = open_out path in
      output_string oc (Experiments.Fig5.to_csv rows);
      close_out oc;
      Fmt.pr "@.csv written to %s@." path
    | None -> ());
    match json with
    | Some path ->
      Obs.Json.to_file path
        (Obs.Json.Obj
           [
             ("schema", Obs.Json.String "bench/v1");
             ("sections", Obs.Json.Obj [("fig5", Experiments.Fig5.to_json rows)]);
           ]);
      Fmt.pr "@.json written to %s@." path
    | None -> ()
  in
  Cmd.v (Cmd.info "fig5" ~doc:"Reproduce Fig. 5 (convergence vs table size).")
    Term.(const run $ sizes_arg $ reps_arg $ flows_arg $ csv_arg $ json_arg)

let ablations_cmd =
  let run () =
    let module A = Experiments.Ablations in
    let section title = Fmt.pr "@.=== %s ===@.@." title in
    let n_prefixes = 10_000 in
    section "Ablation A1 - supercharged convergence vs BFD interval";
    A.pp_points
      ~header:(Fmt.str "(%d prefixes, detect mult 3)" n_prefixes)
      Fmt.stdout (A.bfd_sweep ~n_prefixes ());
    section "Ablation A2 - supercharged convergence vs flow-mod latency";
    A.pp_points
      ~header:(Fmt.str "(%d prefixes, BFD 3 x 40ms)" n_prefixes)
      Fmt.stdout (A.flow_mod_sweep ~n_prefixes ());
    section "Ablation A3 - controller replication (S3)";
    Fmt.pr "%a@." A.pp_replica_report (A.replicas ~n_prefixes:5_000 ());
    section "Ablation A4 - backup-groups of any size (double failure)";
    Fmt.pr "%a@." A.pp_double_failure (A.double_failure ~n_prefixes:2_000 ())
  in
  Cmd.v
    (Cmd.info "ablations"
       ~doc:
         "Ablations A1-A4: BFD interval and flow-mod latency sweeps, replicated \
          controllers, and backup-groups of three under a double failure.")
    Term.(const run $ const ())

(* The checkers' shared verdict: a clean matrix passes, a counterexample
   fails. *)
let verdict ~pp ~length ~passed run =
  let t0 = Sys.time () in
  let result = run () in
  let dt = Sys.time () -. t0 in
  match result with
  | None ->
    Fmt.pr "PASS: %s (%.1fs)@." passed dt;
    exit 0
  | Some f ->
    Fmt.pr "FAIL (%.1fs):@.%a" dt (Check.Harness.pp_failure ~pp ~length) f;
    exit 1

let events_arg default =
  Arg.(value & opt pos_int default & info ["events"] ~docv:"N" ~doc:"Events per schedule.")

let check_cmd =
  let schedules_arg =
    Arg.(
      value & opt pos_int 50
      & info ["schedules"] ~docv:"N" ~doc:"Random schedules to execute.")
  in
  let check_peers_arg =
    Arg.(value & opt pos_int 3 & info ["peers"] ~docv:"N" ~doc:"Upstream peers.")
  in
  let check_prefixes_arg =
    Arg.(
      value & opt pos_int 12 & info ["prefixes"] ~docv:"N" ~doc:"Distinct prefixes.")
  in
  let no_chaos_arg =
    Arg.(
      value & flag
      & info ["no-chaos"]
          ~doc:"Disable fault-window events (blackouts, loss, duplicates).")
  in
  let run schedules events n_peers n_prefixes no_chaos seed =
    input_checked ~flags:["--peers"; "--prefixes"] @@ fun () ->
    Fmt.pr "check: %d schedules x %d events, %d peers, %d prefixes, seed=%Ld%s@."
      schedules events n_peers n_prefixes seed
      (if no_chaos then ", chaos off" else "");
    verdict ~pp:Check.Schedule.pp ~length:Check.Schedule.length
      ~passed:(Fmt.str "%d schedules, zero invariant violations" schedules)
    @@ fun () ->
    Check.Run.run_matrix ~n_peers ~n_prefixes ~events ~chaos:(not no_chaos)
      ~progress:(fun i ->
        if i mod 25 = 0 && i > 0 then Fmt.epr "  ... %d/%d clean@." i schedules)
      ~seed ~schedules ()
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differential checker: random event schedules against the flat-FIB oracle.")
    Term.(
      ret
        (const run $ schedules_arg $ events_arg 30 $ check_peers_arg
        $ check_prefixes_arg $ no_chaos_arg $ seed_arg))

let topo_check_cmd =
  let seeds_arg =
    Arg.(
      value
      & opt (list int64) [101L; 102L; 103L]
      & info ["seeds"] ~docv:"S,S,..." ~doc:"One schedule per seed.")
  in
  let routers_arg =
    Arg.(value & opt pos_int 8 & info ["routers"] ~docv:"N" ~doc:"Ring size (>= 6).")
  in
  let topo_prefixes_arg =
    Arg.(value & opt pos_int 6 & info ["prefixes"] ~docv:"N" ~doc:"Distinct prefixes.")
  in
  let run seeds routers events n_prefixes =
    input_checked ~flags:["--routers"; "--prefixes"] @@ fun () ->
    let schedules = List.length seeds in
    Fmt.pr
      "topo-check: %d schedules x %d events, %d routers, %d prefixes, seeds=[%a]@."
      schedules events routers n_prefixes
      Fmt.(list ~sep:comma int64)
      seeds;
    verdict ~pp:Check.Topo_run.pp ~length:Check.Topo_run.length
      ~passed:(Fmt.str "%d multi-node schedules, zero invariant violations" schedules)
    @@ fun () ->
    Check.Topo_run.run_matrix ~routers ~n_prefixes ~events
      ~progress:(fun i -> Fmt.epr "  schedule %d...@." i)
      ~seeds ()
  in
  Cmd.v
    (Cmd.info "topo-check"
       ~doc:
         "Multi-node differential checker: seeded fault schedules (extern/link/srlg \
          failures, controller partitions) on a ring fabric, verified against the \
          ground-truth forwarding oracle at quiescence.")
    Term.(
      ret (const run $ seeds_arg $ routers_arg $ events_arg 14 $ topo_prefixes_arg))

let ribscale_check_cmd =
  let schedules_arg =
    Arg.(
      value & opt pos_int 3
      & info ["schedules"] ~docv:"N"
          ~doc:"Schedules to execute, from consecutive seeds.")
  in
  let rs_peers_arg =
    Arg.(value & opt pos_int 100 & info ["peers"] ~docv:"N" ~doc:"Peers (skewed views).")
  in
  let entries_arg =
    Arg.(
      value & opt pos_int 60_000
      & info ["entries"] ~docv:"N" ~doc:"Internet-shape table size.")
  in
  let run schedules events peers entries seed =
    input_checked ~flags:["--peers"; "--entries"] @@ fun () ->
    Fmt.pr
      "ribscale-check: %d schedules x %d events, %d peers, %d-prefix internet \
       table, seed=%Ld@."
      schedules events peers entries seed;
    verdict ~pp:Check.Ribscale.pp ~length:Check.Ribscale.length
      ~passed:
        (Fmt.str "incremental RIB matched the naive decision process on %d schedules"
           schedules)
    @@ fun () ->
    Check.Ribscale.run_matrix ~n_peers:peers ~length:events ~entries
      ~progress:(fun i -> Fmt.epr "  schedule %d/%d...@." (i + 1) schedules)
      ~seed ~schedules ()
  in
  Cmd.v
    (Cmd.info "ribscale-check"
       ~doc:
         "Internet-scale RIB differential checker: the sharded, incrementally \
          re-ranked RIB against the naive flat oracle under skewed multi-peer \
          views, withdrawal storms and churn trains, with full ranked-equivalence \
          checking after every event.")
    Term.(
      ret
        (const run $ schedules_arg $ events_arg 10 $ rs_peers_arg $ entries_arg
        $ seed_arg))

let deployment_cmd =
  let routers_arg =
    Arg.(value & opt pos_int 8 & info ["routers"] ~docv:"N" ~doc:"Ring size (>= 6).")
  in
  let dep_prefixes_arg =
    Arg.(value & opt pos_int 200 & info ["prefixes"] ~docv:"N" ~doc:"Prefixes per extern.")
  in
  let seeds_arg =
    Arg.(
      value
      & opt (list int64) Experiments.Deployment.default_seeds
      & info ["seeds"] ~docv:"S,S,..." ~doc:"One sweep per seed.")
  in
  let coverage_arg =
    Arg.(
      value
      & opt (some (list int)) None
      & info ["coverage"] ~docv:"K,K,..."
          ~doc:"Deployment sizes to measure (default: every 0..routers).")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info ["csv"] ~docv:"FILE" ~doc:"Also write the rows as CSV.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info ["json"] ~docv:"FILE"
          ~doc:"Also write the rows as JSON (schema bench/v1).")
  in
  let run routers n_prefixes seeds coverage csv json =
    input_checked ~flags:["--routers"; "--prefixes"; "--coverage"] @@ fun () ->
    let rows =
      Experiments.Deployment.run ~routers ~n_prefixes ?coverage ~seeds
        ~progress:(fun m -> Fmt.epr "  %s@." m)
        ()
    in
    Experiments.Deployment.pp_table Fmt.stdout rows;
    (match csv with
    | Some path ->
      let oc = open_out path in
      output_string oc (Experiments.Deployment.to_csv rows);
      close_out oc;
      Fmt.pr "csv written to %s@." path
    | None -> ());
    match json with
    | Some path ->
      Obs.Json.to_file path
        (Obs.Json.Obj
           [
             ("schema", Obs.Json.String "bench/v1");
             ( "sections",
               Obs.Json.Obj [("deployment", Experiments.Deployment.to_json rows)] );
           ]);
      Fmt.pr "json written to %s@." path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "deployment"
       ~doc:
         "Partial-deployment sweep: convergence win vs fraction of routers \
          supercharged, on the multi-router fabric.")
    Term.(
      ret
        (const run $ routers_arg $ dep_prefixes_arg $ seeds_arg $ coverage_arg $ csv_arg
        $ json_arg))

let lint_cmd =
  let root_arg =
    Arg.(
      value & opt string "."
      & info ["root"] ~docv:"DIR"
          ~doc:"Project root containing lib/ and bin/ (default: cwd).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info ["json"] ~docv:"FILE" ~doc:"Also write the report as JSON (schema lint/v3).")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info ["strict"]
          ~doc:"Exit non-zero on warnings (e.g. missing-mli) too, not just errors.")
  in
  let inventory_arg =
    Arg.(
      value
      & opt (some string) None
      & info ["inventory"] ~docv:"FILE"
          ~doc:
            "Compare the committed mutable-state inventory (schema \
             lint/state-v1) against a fresh one; exit 3 and rewrite FILE on \
             divergence so the diff is reviewable.")
  in
  let only_arg =
    Arg.(
      value & opt_all string []
      & info ["only"] ~docv:"RULE"
          ~doc:"Run only the named rule(s) (repeatable). parse-error always surfaces.")
  in
  let except_arg =
    Arg.(
      value & opt_all string []
      & info ["except"] ~docv:"RULE" ~doc:"Skip the named rule(s) (repeatable).")
  in
  (* Exit codes: 0 clean; 1 findings (errors, or warnings under
     --strict); 2 a file failed to parse; 3 inventory drift. Parse
     failure wins over findings, findings over drift: a tree that can't
     be read can't be trusted about anything else. *)
  let run root json strict inventory only except =
    let unknown =
      List.filter
        (fun r -> not (List.mem r Lint.Engine.all_rule_ids))
        (only @ except)
    in
    if unknown <> [] then begin
      Fmt.epr "unknown rule(s): %a; known: %a@."
        Fmt.(list ~sep:comma string)
        unknown
        Fmt.(list ~sep:comma string)
        Lint.Engine.all_rule_ids;
      exit 2
    end;
    let only = match only with [] -> None | rs -> Some rs in
    let report = Lint.Engine.scan_tree ?only ~except root in
    Lint.Engine.pp_report Fmt.stdout report;
    (match json with
    | Some path ->
      Obs.Json.to_file path (Lint.Engine.to_json report);
      Fmt.pr "json written to %s@." path
    | None -> ());
    let drift =
      match inventory with
      | None -> false
      | Some path -> (
        match Lint.State.check ~committed_path:path report.Lint.Engine.index with
        | Lint.State.Fresh_matches ->
          Fmt.pr "inventory %s is current@." path;
          false
        | Lint.State.Missing_committed | Lint.State.Diverged ->
          Lint.State.write ~path report.Lint.Engine.index;
          Fmt.pr
            "inventory drift: %s rewritten from the tree; review and commit \
             the diff@."
            path;
          true)
    in
    let errors = Lint.Engine.errors report in
    let warnings = Lint.Engine.warnings report in
    if Lint.Engine.has_parse_errors report then exit 2
    else if errors > 0 || (strict && warnings > 0) then exit 1
    else if drift then exit 3
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis enforcing the determinism, comparison and \
          domain-safety discipline: per-file rules (no ambient RNG/clock, no \
          polymorphic compare on net types, no hash-ordered output, no \
          wildcard on closed event variants) plus whole-program passes \
          (no-shared-mutable-global, cross-domain-unsafe, hot-path-alloc). \
          Exit codes: 0 clean, 1 findings, 2 parse error or bad --only/--except, \
          3 inventory drift.")
    Term.(
      const run $ root_arg $ json_arg $ strict_arg $ inventory_arg $ only_arg
      $ except_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "sc_lab" ~version:"1.0.0"
             ~doc:"Supercharged-router convergence laboratory.")
          [
            run_cmd;
            micro_cmd;
            fig5_cmd;
            ablations_cmd;
            check_cmd;
            topo_check_cmd;
            ribscale_check_cmd;
            deployment_cmd;
            lint_cmd;
          ]))
