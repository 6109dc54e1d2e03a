(* perf.exe diff A... -- B...: compares two sets of result files (A the
   parent, B the change) with each metric's direction and bound from
   BENCHMARK.json, one row per workload.

   An end-to-end metric regresses when B's median is worse than A's by
   more than its bound. When either set spreads wider than the bound
   (interquartile distance over median) the metric is unresolved,
   unless every B run beats every A run. Metrics a run marks exact
   (simulated time, deterministic counts) are compared run by run on
   equal seeds and lengths and must not move the wrong way at all. A
   regression or an incorrect B run makes the exit code 1. *)

type run = {
  file : string;
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  correct : bool;
  values : (string * (float * bool)) list;  (* value, exact *)
}

let load_run_json ~file j =
  let values =
    match Pjson.field "metrics" j with
    | Pjson.Obj members ->
      List.map
        (fun (name, m) ->
          (name, (Pjson.to_num (Pjson.field "value" m), Pjson.to_bool (Pjson.field "exact" m))))
        members
    | _ -> raise (Pjson.Parse_error "metrics must be an object")
  in
  {
    file;
    workload = Pjson.to_str (Pjson.field "workload" j);
    seed = int_of_float (Pjson.to_num (Pjson.field "seed" j));
    seconds = Pjson.to_num (Pjson.field "seconds" j);
    traced = Pjson.to_bool (Pjson.field "traced" j);
    correct = Pjson.to_bool (Pjson.field "correct" j);
    values;
  }

let load_run file = load_run_json ~file (Pjson.of_file file)

type verdict = Same | Better | Unresolved | Regression

let verdict_name = function
  | Same -> "ok"
  | Better -> "better"
  | Unresolved -> "unresolved"
  | Regression -> "REGRESSION"

type cell = {
  metric : Spec.metric;
  median_a : float;
  median_b : float;
  spread_a : float;
  spread_b : float;
  verdict : verdict;
}

type row = {
  workload : string;
  cells : cell list;  (* [] when a set has no untraced run of it *)
  exact_drift : string list;  (* exact metrics that moved the wrong way *)
  incorrect : string list;  (* B files whose run was not correct *)
}

let relative_change ~from x = if from = 0.0 then (if x = 0.0 then 0.0 else infinity) else (x /. from) -. 1.0

let compare_metric (m : Spec.metric) a b =
  let bound = Option.value ~default:0.0 m.bound in
  let median_a = Stat.median a and median_b = Stat.median b in
  let change = relative_change ~from:median_a median_b in
  let worse = if m.lower_is_better then change else -.change in
  let beats x y = if m.lower_is_better then x < y else x > y in
  let all_better = Array.for_all (fun y -> Array.for_all (fun x -> beats y x) a) b in
  let spread_a = Stat.spread a and spread_b = Stat.spread b in
  let verdict =
    if spread_a > bound || spread_b > bound then if all_better then Better else Unresolved
    else if worse > bound then Regression
    else if worse < -.bound then Better
    else Same
  in
  { metric = m; median_a; median_b; spread_a; spread_b; verdict }

(* Exact values of runs that share a seed and a length must not get
   worse; one with no direction in the spec must not move at all. *)
let exact_drift (spec : Spec.t) a b =
  List.concat_map
    (fun rb ->
      match
        List.find_opt
          (fun ra -> ra.seed = rb.seed && ra.seconds = rb.seconds && ra.traced = rb.traced)
          a
      with
      | None -> []
      | Some ra ->
        List.filter_map
          (fun (name, (vb, exact_b)) ->
            match List.assoc_opt name ra.values with
            | Some (va, true) when exact_b && va <> vb ->
              let worse =
                match Spec.find spec name with
                | Some m -> if m.lower_is_better then vb > va else vb < va
                | None -> true
              in
              if worse then Some (Printf.sprintf "%s %g -> %g (seed %d)" name va vb rb.seed)
              else None
            | Some _ | None -> None)
          rb.values)
    b

let compare_sets (spec : Spec.t) a b =
  let workloads =
    let seen = List.map (fun (r : run) -> r.workload) (a @ b) in
    List.filter (fun w -> List.mem w seen) spec.workloads
    @ List.sort_uniq String.compare (List.filter (fun w -> not (List.mem w spec.workloads)) seen)
  in
  List.map
    (fun workload ->
      let of_set set = List.filter (fun (r : run) -> r.workload = workload) set in
      let ra = of_set a and rb = of_set b in
      let untraced set = List.filter (fun (r : run) -> not r.traced) set in
      let values set name =
        Array.of_list (List.filter_map (fun r -> Option.map fst (List.assoc_opt name r.values)) set)
      in
      let cells =
        match untraced ra, untraced rb with
        | [], _ | _, [] -> []
        | ua, ub ->
          List.filter_map
            (fun (m : Spec.metric) ->
              let va = values ua m.name and vb = values ub m.name in
              if Array.length va = 0 || Array.length vb = 0 then None
              else Some (compare_metric m va vb))
            spec.end_to_end
      in
      {
        workload;
        cells;
        exact_drift = exact_drift spec ra rb;
        incorrect = List.filter_map (fun r -> if r.correct then None else Some r.file) rb;
      })
    workloads

let regressed row =
  row.exact_drift <> [] || row.incorrect <> []
  || List.exists (fun c -> c.verdict = Regression) row.cells

let print (spec : Spec.t) rows =
  let width = 20 in
  Printf.printf "%-18s" "workload";
  List.iter (fun (m : Spec.metric) -> Printf.printf " %-*s" width m.name) spec.end_to_end;
  Printf.printf " %s\n" "exact";
  List.iter
    (fun row ->
      Printf.printf "%-18s" row.workload;
      List.iter
        (fun (m : Spec.metric) ->
          let text =
            match List.find_opt (fun c -> c.metric.name = m.name) row.cells with
            | Some c ->
              Printf.sprintf "%+.1f%% %s" (100.0 *. relative_change ~from:c.median_a c.median_b)
                (verdict_name c.verdict)
            | None -> "-"
          in
          Printf.printf " %-*s" width text)
        spec.end_to_end;
      Printf.printf " %s\n"
        (if row.exact_drift = [] then "ok" else Printf.sprintf "%d drift" (List.length row.exact_drift)))
    rows;
  List.iter
    (fun row ->
      List.iter
        (fun c ->
          if c.verdict <> Same then
            Printf.printf "  %s %s: median %.6g -> %.6g, spread %.1f%% / %.1f%%, bound %.0f%%: %s\n"
              row.workload c.metric.name c.median_a c.median_b (100.0 *. c.spread_a)
              (100.0 *. c.spread_b)
              (100.0 *. Option.value ~default:0.0 c.metric.bound)
              (verdict_name c.verdict))
        row.cells;
      List.iter (fun d -> Printf.printf "  %s exact: %s\n" row.workload d) row.exact_drift;
      List.iter (fun f -> Printf.printf "  %s incorrect run: %s\n" row.workload f) row.incorrect;
      if row.cells = [] then Printf.printf "  %s: no untraced run in one of the sets\n" row.workload)
    rows

let main ~spec_path files =
  let rec split acc = function
    | "--" :: rest -> Some (List.rev acc, rest)
    | f :: rest -> split (f :: acc) rest
    | [] -> None
  in
  match split [] files with
  | Some ((_ :: _ as a), (_ :: _ as b)) ->
    let spec = Spec.load spec_path in
    let rows = compare_sets spec (List.map load_run a) (List.map load_run b) in
    Printf.printf "A: %d result files, B: %d; bounds from %s\n" (List.length a) (List.length b)
      spec_path;
    print spec rows;
    if List.exists regressed rows then 1 else 0
  | Some _ | None ->
    prerr_endline "usage: perf.exe diff [--spec BENCHMARK.json] A.json... -- B.json...";
    2
