(* The wall_s column reports real host time per run; the wall-clock
   reads are the measurement, not leaked ambient state. *)
[@@@lint.allow "no-ambient-nondeterminism"]

type row = {
  n_prefixes : int;
  mode : Topology.mode;
  summary : Stats.summary;
  unrecovered : int;
  flow_mods : int;
  updates_processed : int;
  wall_s : float;
  updates_per_sec : float;
  failover : Obs.Histogram.t;
}

let paper_sizes = [1_000; 5_000; 10_000; 50_000; 100_000; 200_000; 300_000; 400_000; 500_000]

let paper_max_seconds =
  [
    (1_000, 0.9); (5_000, 1.6); (10_000, 3.4); (50_000, 13.8); (100_000, 29.2);
    (200_000, 56.9); (300_000, 86.4); (400_000, 113.1); (500_000, 140.9);
  ]

let run ?(sizes = paper_sizes) ?(repetitions = 3) ?(monitored_flows = 100)
    ?(progress = fun _ -> ()) () =
  let modes = [Topology.Plain; Topology.Supercharged { replicas = 1 }] in
  List.concat_map
    (fun n_prefixes ->
      List.map
        (fun mode ->
          let samples = ref [] in
          let unrecovered = ref 0 in
          let flow_mods = ref 0 in
          let updates_processed = ref 0 in
          let wall_s = ref 0.0 in
          let failover = Obs.Histogram.create () in
          for rep = 0 to repetitions - 1 do
            progress
              (Fmt.str "fig5: %a %d prefixes, repetition %d/%d" Topology.pp_mode
                 mode n_prefixes (rep + 1) repetitions);
            let params =
              {
                (Topology.default_params ~mode ~n_prefixes ()) with
                Topology.monitored_flows;
                seed = Int64.add 42L (Int64.of_int rep);
              }
            in
            let t0 = Unix.gettimeofday () in
            let result = Topology.run params in
            wall_s := !wall_s +. (Unix.gettimeofday () -. t0);
            Array.iter
              (function
                | Some t -> samples := Sim.Time.to_sec t :: !samples
                | None -> incr unrecovered)
              result.Topology.convergence;
            (match
               Obs.Metrics.find_counter result.Topology.metrics
                 "provisioner.flow_mods"
             with
            | Some n -> flow_mods := !flow_mods + n
            | None -> ());
            updates_processed :=
              !updates_processed + result.Topology.updates_processed;
            match
              Obs.Metrics.find_histogram result.Topology.metrics
                "controller.failover_seconds"
            with
            | Some h -> Obs.Histogram.merge_into ~into:failover h
            | None -> ()
          done;
          {
            n_prefixes;
            mode;
            summary = Stats.summarize (Array.of_list !samples);
            unrecovered = !unrecovered;
            flow_mods = !flow_mods;
            updates_processed = !updates_processed;
            wall_s = !wall_s;
            updates_per_sec =
              (if !wall_s > 0.0 then float_of_int !updates_processed /. !wall_s
               else 0.0);
            failover;
          })
        modes)
    sizes

let to_json rows =
  let row_json row =
    Obs.Json.Obj
      [
        ("prefixes", Obs.Json.Int row.n_prefixes);
        ("mode", Obs.Json.String (Fmt.str "%a" Topology.pp_mode row.mode));
        ("convergence_seconds", Stats.summary_to_json row.summary);
        ("unrecovered", Obs.Json.Int row.unrecovered);
        ("flow_mods", Obs.Json.Int row.flow_mods);
        ("updates_processed", Obs.Json.Int row.updates_processed);
        ("wall_seconds", Obs.Json.Float row.wall_s);
        ("updates_per_sec", Obs.Json.Float row.updates_per_sec);
        ("failover_seconds", Obs.Histogram.to_json row.failover);
      ]
  in
  Obs.Json.Obj
    [
      ( "paper_max_seconds",
        Obs.Json.Obj
          (List.map
             (fun (n, s) -> (string_of_int n, Obs.Json.Float s))
             paper_max_seconds) );
      ("rows", Obs.Json.List (List.map row_json rows));
    ]

let to_csv rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "prefixes,mode,n,min_s,p5_s,q1_s,median_s,q3_s,p95_s,max_s,mean_s,unrecovered\n";
  List.iter
    (fun row ->
      let s = row.summary in
      Buffer.add_string buf
        (Fmt.str "%d,%a,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%d\n"
           row.n_prefixes Topology.pp_mode row.mode s.Stats.n s.Stats.min
           s.Stats.p5 s.Stats.q1 s.Stats.median s.Stats.q3 s.Stats.p95
           s.Stats.max s.Stats.mean row.unrecovered))
    rows;
  Buffer.contents buf

(* Log-scale horizontal box plot: whiskers p5..p95, box q1..q3, median
   bar, rendered over [width] columns between [lo] and [hi] seconds. *)
let pp_ascii_figure ppf rows =
  let width = 56 in
  let lo = 0.01 and hi = 1000.0 in
  let column t =
    let t = Float.max lo (Float.min hi t) in
    let f = (Float.log10 t -. Float.log10 lo) /. (Float.log10 hi -. Float.log10 lo) in
    int_of_float (f *. float_of_int (width - 1))
  in
  let render (s : Stats.summary) =
    let line = Bytes.make width ' ' in
    let put a b ch =
      for i = min a b to max a b do
        Bytes.set line i ch
      done
    in
    put (column s.Stats.p5) (column s.Stats.p95) '-';
    put (column s.Stats.q1) (column s.Stats.q3) '=';
    Bytes.set line (column s.Stats.median) '|';
    Bytes.to_string line
  in
  Fmt.pf ppf "convergence time, log scale: 10ms %s 1000s@."
    (String.make (width - 10) '.');
  Fmt.pf ppf "%-9s %-6s %s@." "prefixes" "mode" (String.make width ' ');
  List.iter
    (fun row ->
      let tag = match row.mode with Topology.Plain -> "plain" | Topology.Supercharged _ -> "super" in
      Fmt.pf ppf "%-9d %-6s [%s] max=%.3fs@." row.n_prefixes tag (render row.summary)
        row.summary.Stats.max)
    rows

let pp_table ppf rows =
  Fmt.pf ppf "%-9s %-17s %9s %9s %9s %9s %9s %6s@." "prefixes" "mode" "p5(s)"
    "median(s)" "p95(s)" "max(s)" "paper(s)" "lost";
  List.iter
    (fun row ->
      let paper_ref =
        match row.mode with
        | Topology.Plain -> (
          match List.assoc_opt row.n_prefixes paper_max_seconds with
          | Some v -> Fmt.str "%9.1f" v
          | None -> Fmt.str "%9s" "-")
        | Topology.Supercharged _ -> Fmt.str "%9.3f" 0.150
      in
      Fmt.pf ppf "%-9d %-17s %9.3f %9.3f %9.3f %9.3f %s %6d@." row.n_prefixes
        (Fmt.str "%a" Topology.pp_mode row.mode)
        row.summary.Stats.p5 row.summary.Stats.median row.summary.Stats.p95
        row.summary.Stats.max paper_ref row.unrecovered)
    rows;
  (* Improvement factors per size (worst case over worst case, as in the
     paper's headline 900x). *)
  let plain = List.filter (fun r -> r.mode = Topology.Plain) rows in
  let super = List.filter (fun r -> r.mode <> Topology.Plain) rows in
  List.iter
    (fun (p : row) ->
      match List.find_opt (fun s -> s.n_prefixes = p.n_prefixes) super with
      | Some s when s.summary.Stats.max > 0.0 ->
        Fmt.pf ppf "improvement at %-7d: %.0fx (max %.3fs -> %.3fs)@." p.n_prefixes
          (p.summary.Stats.max /. s.summary.Stats.max)
          p.summary.Stats.max s.summary.Stats.max
      | Some _ | None -> ())
    plain
