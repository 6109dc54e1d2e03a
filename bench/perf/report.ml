(* Metrics of one run: the catalogue of names and units, the values a
   workload records, its output checks, the host it ran on, and the
   three ways a run is printed (a table, a result file, and the one-line
   summary that ends standard output). *)

(* The end-to-end metrics, measured with tracing off. Each workload
   defines its operation (see README.md). *)
let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("op_p50_us", "us");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
  ]

(* Call sites the workloads time; each reports items handled per second
   of its own self time. *)
let sites =
  [
    "bgp.rib.apply_update";
    "bgp.rib.apply_update_r1";
    "bgp.rib.withdraw_peer";
    "core.algorithm.process_changes";
    "core.controller.updates_of_emissions";
    "core.provisioner.fail_peer";
    "openflow.flow_table.apply";
    "openflow.switch.receive_batch";
    "router.fib.write";
    "router.legacy.receive_batch";
    "net.flat_fib.lookup_batch";
    "sim.engine.run";
    "check.run.execute";
  ]

let layers = ["sim"; "bgp"; "core"; "router"; "net"; "openflow"; "check"]

(* The per-layer metrics, reported by the traced run. A layer a
   workload never calls reports 0. *)
let per_layer =
  [
    ("workloads.generate_s", "s");
    ("trace.wall_s", "s");
    ("trace.overhead_pct", "%");
    ("trace.unattributed_pct", "%");
    ("trace.spans_kept", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.promoted_words_per_op", "words");
    ("gc.major_collections", "count");
  ]
  @ List.map (fun l -> (l ^ ".self_pct", "%")) layers
  @ List.map (fun s -> (s ^ ".per_s", "1/s")) sites
  @ [
      ("sim.events_per_op", "count");
      ("sim.events_per_s", "1/s");
      ("bgp.rib.candidate_visits_per_op", "count");
      ("bgp.rib.peer_down_visit_ratio", "ratio");
      ("core.algorithm.emissions_per_op", "count");
      ("core.backup_groups", "count");
      ("core.provisioner.flow_mods", "count");
      ("core.controller.updates_processed", "count");
      ("core.controller.updates_sent", "count");
      ("openflow.switch.flow_mods_applied", "count");
      ("router.fib.writes", "count");
      ("net.flat_fib.nodes", "count");
      ("trafficgen.monitor.probes", "count");
      ("check.schedule.events_per_op", "count");
      ("trafficgen.convergence_p50_ms", "sim_ms");
      ("trafficgen.convergence_p90_ms", "sim_ms");
      ("trafficgen.convergence_max_ms", "sim_ms");
      ("bfd.detection_ms", "sim_ms");
      ("core.controller.failover_ms", "sim_ms");
    ]

type kind = End_to_end | Per_layer | Extra

type value = { v : float; unit_ : string; kind : kind; exact : bool }

type t = {
  workload : string;
  seed : int;
  traced : bool;
  mutable values : (string * value) list;  (* newest first *)
  mutable checks : (string * bool) list;  (* newest first *)
  mutable attempted : int;
  mutable failed : int;
}

let create ~workload ~seed ~traced =
  { workload; seed; traced; values = []; checks = []; attempted = 0; failed = 0 }

let set t name kind ?(exact = false) unit_ v =
  if Float.is_nan v then invalid_arg ("Report: no value for " ^ name);
  t.values <- (name, { v; unit_; kind; exact }) :: List.remove_assoc name t.values

let catalogued table name =
  match List.assoc_opt name table with
  | Some u -> u
  | None -> invalid_arg ("Report: metric not in the catalogue: " ^ name)

let e2e t name v = set t name End_to_end (catalogued end_to_end name) v
let layer t ?exact name v = set t name Per_layer ?exact (catalogued per_layer name) v
let extra t ?exact name ~unit_ v = set t name Extra ?exact unit_ v

let find t name = Option.map (fun x -> x.v) (List.assoc_opt name t.values)

(* An output check. A failing one makes the run incorrect. *)
let check t name ok = t.checks <- (name, ok) :: t.checks

(* Operations attempted, and those whose output check failed. *)
let ops t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

let correct t = t.failed = 0 && List.for_all snd t.checks

(* --- host context -------------------------------------------------- *)

let read_first_line path =
  match In_channel.with_open_text path In_channel.input_line with
  | line -> line
  | exception Sys_error _ -> None

let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | text ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | key :: rest when String.trim key = "model name" ->
          Some (String.trim (String.concat ":" rest))
        | _ -> None)
      (String.split_on_char '\n' text)
  | exception Sys_error _ -> None

let loadavg () =
  match read_first_line "/proc/loadavg" with
  | Some line -> (
    match String.split_on_char ' ' line with
    | a :: b :: c :: _ -> Pjson.Arr (List.map (fun x -> Pjson.Num (float_of_string x)) [a; b; c])
    | _ -> Pjson.Null)
  | None -> Pjson.Null

let host_context ~load_start =
  let g = Gc.get () in
  let num i = Pjson.Num (float_of_int i) in
  Pjson.Obj
    [
      ("ocaml_version", Pjson.Str Sys.ocaml_version);
      ( "gc",
        Pjson.Obj
          [
            ("minor_heap_size_words", num g.Gc.minor_heap_size);
            ("space_overhead", num g.Gc.space_overhead);
            ("max_overhead", num g.Gc.max_overhead);
            ("stack_limit", num g.Gc.stack_limit);
            ("allocation_policy", num g.Gc.allocation_policy);
            ("custom_major_ratio", num g.Gc.custom_major_ratio);
          ] );
      ("nproc", num (Domain.recommended_domain_count ()));
      ("cpu_model", match cpu_model () with Some m -> Pjson.Str m | None -> Pjson.Null);
      ("loadavg_start", load_start);
      ("loadavg_end", loadavg ());
    ]

(* --- output -------------------------------------------------------- *)

let kind_name = function End_to_end -> "end_to_end" | Per_layer -> "per_layer" | Extra -> "extra"

let pp_table ppf t =
  Format.fprintf ppf "%-42s %18s  %-7s %s@." "metric" "value" "unit" "kind";
  List.iter
    (fun (name, x) ->
      Format.fprintf ppf "%-42s %18.6g  %-7s %s%s@." name x.v x.unit_ (kind_name x.kind)
        (if x.exact then " (exact)" else ""))
    (List.rev t.values);
  List.iter
    (fun (name, ok) -> Format.fprintf ppf "check %-36s %s@." name (if ok then "ok" else "FAILED"))
    (List.rev t.checks);
  Format.fprintf ppf "ops attempted %d, failed %d; correct: %b@." t.attempted t.failed (correct t)

(* The result file: every value this run measured, its checks, and the
   host context. [perf.exe diff] reads it. *)
let to_json t ~seconds ~host =
  Pjson.Obj
    [
      ("schema", Pjson.Str "perf-result/v1");
      ("workload", Pjson.Str t.workload);
      ("seed", Pjson.Num (float_of_int t.seed));
      ("seconds", Pjson.Num seconds);
      ("traced", Pjson.Bool t.traced);
      ("correct", Pjson.Bool (correct t));
      ("attempted", Pjson.Num (float_of_int t.attempted));
      ("failed", Pjson.Num (float_of_int t.failed));
      ( "metrics",
        Pjson.Obj
          (List.rev_map
             (fun (name, x) ->
               ( name,
                 Pjson.Obj
                   [
                     ("value", Pjson.Num x.v);
                     ("unit", Pjson.Str x.unit_);
                     ("kind", Pjson.Str (kind_name x.kind));
                     ("exact", Pjson.Bool x.exact);
                   ] ))
             t.values) );
      ( "checks",
        Pjson.Obj (List.rev_map (fun (name, ok) -> (name, Pjson.Bool ok)) t.checks) );
      ("host", host);
    ]

(* The last line of standard output: the end-to-end metrics of an
   untraced run, or the per-layer metrics of a traced one. A per-layer
   metric the workload never touched reads 0. *)
let summary t =
  let catalogue = if t.traced then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit_) ->
        let v =
          match find t name with
          | Some v -> v
          | None when t.traced -> 0.0
          | None -> invalid_arg ("Report.summary: end-to-end metric not measured: " ^ name)
        in
        (name, Pjson.Obj [("value", Pjson.Num v); ("unit", Pjson.Str unit_)]))
      catalogue
  in
  Pjson.Obj
    [
      ("correct", Pjson.Bool (correct t));
      ("attempted", Pjson.Num (float_of_int t.attempted));
      ("failed", Pjson.Num (float_of_int t.failed));
      ("metrics", Pjson.Obj metrics);
    ]
