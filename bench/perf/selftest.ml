(* perf.exe selftest: every workload at tiny sizes, untraced and traced,
   in a few seconds. It checks that BENCHMARK.json and the code name the
   same workloads and metrics with the same units, that every run emits
   every metric of its kind and is correct with no failed operation,
   and that the differ passes a set against itself and catches a
   slowdown. *)

let main ~spec_path =
  let spec = Spec.load spec_path in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let same_catalogue kind code (listed : Spec.metric list) =
    let sort l = List.sort compare l in
    let listed' = List.map (fun (m : Spec.metric) -> (m.name, m.unit_)) listed in
    if sort code <> sort listed' then fail "%s metrics in %s differ from the code's" kind spec_path
  in
  same_catalogue "end_to_end" Report.end_to_end spec.end_to_end;
  same_catalogue "per_layer" Report.per_layer spec.per_layer;
  List.iter
    (fun (m : Spec.metric) -> if m.bound = None then fail "%s has no bound" m.name)
    spec.end_to_end;
  let names = List.map (fun (w : Registry.workload) -> w.name) Registry.all in
  if names <> spec.workloads then fail "workloads in %s differ from the code's" spec_path;
  if Stat.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) <> [2.75; 5.5; 8.25] then
    fail "quartiles disagree with Python's statistics.quantiles";
  let runs = ref [] in
  List.iter
    (fun (w : Registry.workload) ->
      List.iter
        (fun traced ->
          let tag = Printf.sprintf "%s (traced %b)" w.name traced in
          let t0 = Trace.now_ns () in
          let r, tr =
            Registry.run w ~seed:w.default_seed ~seconds:0.02 ~scale:Harness.Tiny ~traced
          in
          let wall = float_of_int (Trace.now_ns () - t0) /. 1e9 in
          Printf.printf "%-34s %6.2f s  attempted %d  failed %d\n%!" tag wall r.attempted r.failed;
          List.iter (fun (name, ok) -> if not ok then fail "%s: check %s failed" tag name) r.checks;
          if r.failed <> 0 || r.attempted < 1 then
            fail "%s: %d of %d operations failed" tag r.failed r.attempted;
          let summary = Pjson.parse (Pjson.to_string (Report.summary r)) in
          let metrics = Pjson.field "metrics" summary in
          List.iter
            (fun (m : Spec.metric) ->
              match Pjson.member m.name metrics with
              | Some v ->
                if Pjson.to_str (Pjson.field "unit" v) <> m.unit_ then
                  fail "%s: %s has the wrong unit" tag m.name;
                if (not traced) && not (Pjson.to_num (Pjson.field "value" v) > 0.0) then
                  fail "%s: %s is not positive" tag m.name
              | None -> fail "%s: %s missing from the summary" tag m.name)
            (if traced then spec.per_layer else spec.end_to_end);
          if traced then begin
            if Trace.spans_kept tr = 0 then fail "%s: no span kept" tag;
            ignore (Pjson.to_string (Trace.to_json tr ~workload:w.name ~seed:w.default_seed))
          end;
          runs := Pjson.to_string (Report.to_json r ~seconds:0.02 ~host:Pjson.Null) :: !runs)
        [false; true])
    Registry.all;
  (* The differ, on result files as the runs above wrote them. *)
  let as_run text = Diff.load_run_json ~file:"selftest" (Pjson.parse text) in
  let base = List.map as_run !runs in
  if List.exists Diff.regressed (Diff.compare_sets spec base base) then
    fail "diff: a set regresses against itself";
  let slower =
    List.map
      (fun (run : Diff.run) ->
        let values =
          List.map
            (fun (name, (v, exact)) -> (name, ((if name = "op_p50_us" then 2.0 *. v else v), exact)))
            run.values
        in
        { run with values })
      base
  in
  if not (List.exists Diff.regressed (Diff.compare_sets spec base slower)) then
    fail "diff: a doubled op_p50_us is not a regression";
  match !problems with
  | [] ->
    print_endline "selftest: ok";
    0
  | problems ->
    List.iter (fun p -> prerr_endline ("selftest: " ^ p)) (List.rev problems);
    1
