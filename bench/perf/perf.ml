(* The repository benchmark.

     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1|FILE]
              [--json FILE]
     perf.exe diff [--spec BENCHMARK.json] A.json... -- B.json...
     perf.exe selftest [--spec BENCHMARK.json]
     perf.exe list

   A run prints every metric with its unit and its output checks, then,
   as the last line of standard output, one JSON object: whether the
   outputs were correct, the operations attempted and failed, and the
   end-to-end metrics (untraced) or the per-layer metrics (traced).
   `--trace 1` writes the kept spans to perf-out/<workload>-<seed>.spans.json,
   `--trace FILE` to FILE. --json writes the full result file, host
   context included, that `diff` compares. *)

let default_seconds = 8.0

let usage () =
  prerr_endline
    "usage: perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1|FILE] [--json FILE]\n\
    \       perf.exe diff [--spec BENCHMARK.json] A.json... -- B.json...\n\
    \       perf.exe selftest [--spec BENCHMARK.json]\n\
    \       perf.exe list";
  exit 2

let rec options acc = function
  | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
    options ((flag, value) :: acc) rest
  | [] -> List.rev acc
  | _ -> usage ()

let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage ()

let write_spans path tr ~workload ~seed =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Pjson.to_file path (Trace.to_json tr ~workload ~seed)

let run_workload opts =
  let get k = List.assoc_opt k opts in
  List.iter
    (fun (k, _) ->
      if not (List.mem k ["--workload"; "--seed"; "--seconds"; "--trace"; "--json"]) then
        usage ())
    opts;
  let w =
    match Option.bind (get "--workload") Registry.find with
    | Some w -> w
    | None ->
      prerr_endline "perf.exe: --workload must name one of the workloads (perf.exe list)";
      exit 2
  in
  let seed = Option.fold ~none:w.default_seed ~some:int_arg (get "--seed") in
  let seconds =
    match Option.map float_of_string_opt (get "--seconds") with
    | None -> default_seconds
    | Some (Some s) when s > 0.0 -> s
    | Some _ -> usage ()
  in
  let spans_path =
    match get "--trace" with
    | None | Some "0" -> None
    | Some "1" -> Some (Printf.sprintf "perf-out/%s-%d.spans.json" w.name seed)
    | Some file -> Some file
  in
  let traced = Option.is_some spans_path in
  let json_path = get "--json" in
  let load_start = if Option.is_some json_path then Report.loadavg () else Pjson.Null in
  Printf.printf "workload %s, seed %d, %g s measured, tracing %s\n%!" w.name seed seconds
    (if traced then "on" else "off");
  let r, tr =
    try Registry.run w ~seed ~seconds ~scale:Harness.Full ~traced
    with e ->
      Printf.eprintf "perf.exe: %s failed: %s\n" w.name (Printexc.to_string e);
      exit 1
  in
  Report.pp_table Format.std_formatter r;
  Format.pp_print_flush Format.std_formatter ();
  Option.iter
    (fun path ->
      write_spans path tr ~workload:w.name ~seed;
      Printf.printf "spans: %s (%d kept)\n" path (Trace.spans_kept tr))
    spans_path;
  Option.iter
    (fun path ->
      Pjson.to_file path (Report.to_json r ~seconds ~host:(Report.host_context ~load_start));
      Printf.printf "result: %s\n" path)
    json_path;
  print_endline (Pjson.to_string (Report.summary r));
  0

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let spec_of = function
    | "--spec" :: path :: rest -> (path, rest)
    | rest -> ("BENCHMARK.json", rest)
  in
  exit
    (match args with
    | "diff" :: rest ->
      let spec_path, files = spec_of rest in
      Diff.main ~spec_path files
    | "selftest" :: rest ->
      let spec_path, rest = spec_of rest in
      if rest <> [] then usage ();
      Selftest.main ~spec_path
    | ["list"] ->
      List.iter
        (fun (w : Registry.workload) -> Printf.printf "%s (default seed %d)\n" w.name w.default_seed)
        Registry.all;
      0
    | _ -> run_workload (options [] args))
