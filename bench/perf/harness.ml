(* What every workload shares: its context, the three timed phases
   (input generation, set-up, the measured closed loop), and the
   per-layer accounting of a traced run. *)

type scale = Full | Tiny  (* Tiny: sizes small enough for `dune runtest` *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  scale : scale;
  tr : Trace.t;
  r : Report.t;
  mutable generate_s : float;
}

let traced ctx = ctx.r.Report.traced
let pick ctx ~full ~tiny = match ctx.scale with Full -> full | Tiny -> tiny

let time f =
  let t0 = Trace.now_ns () in
  let x = f () in
  (x, float_of_int (Trace.now_ns () - t0) /. 1e9)

(* Input generation from the seed: timed as workloads.generate_s, never
   counted as program work. *)
let generate ctx f =
  let x, s = time f in
  ctx.generate_s <- ctx.generate_s +. s;
  x

(* Program set-up, each time from a compacted heap: at least
   [setup_min_reps] times and until the repetitions add up to
   [setup_min_s] (at most [setup_max_reps]). The median is setup_s; the
   last result is kept. A set-up that only draws the workload's inputs
   ([~inputs:true]) also counts as their generation time. *)
let setup_min_reps = 3
let setup_min_s = 1.0
let setup_max_reps = 31

let setup ?(inputs = false) ctx f =
  let rec go times =
    Gc.compact ();
    let x, s = time f in
    let times = s :: times in
    let n = List.length times in
    if n >= setup_max_reps
       || (n >= setup_min_reps && List.fold_left ( +. ) 0.0 times >= setup_min_s)
    then (x, times)
    else go times
  in
  let x, times = go [] in
  let median = Stat.median (Array.of_list times) in
  Report.e2e ctx.r "setup_s" median;
  if inputs then ctx.generate_s <- ctx.generate_s +. median;
  Report.extra ctx.r "setup_reps" ~unit_:"count" (float_of_int (List.length times));
  x

(* --- the measured closed loop -------------------------------------- *)

(* A closed loop of a fixed number of operations, each issued when the
   previous one returns: [seconds] at the workload's nominal rate on the
   reference host (README.md), and at least one. The work done is then
   the same on every run of a seed, and so are its counts.

   The run is cut into up to [max_blocks] blocks of at least
   [block_min_ops] operations. On a shared host other tenants' memory
   traffic slows whole stretches of a run, by up to a half, so the
   end-to-end throughput and median latency are taken over the fastest
   quarter of the blocks (their median; the best block when there are
   fewer than eight). The whole run's 99th percentile is reported
   beside them.

   In a traced run the loop alternates chunks with tracing on and off,
   so the same run measures the per-layer split and what tracing
   costs. *)
let max_blocks = 20
let block_min_ops = 100

type loop = {
  n_ops : int;
  block_ops : int;
  lat : Stat.Ivec.t;  (* ns per operation, the whole run *)
  mutable block_start : int;  (* index in [lat] of the open block *)
  mutable block_ns : int;
  mutable blocks : (float * float) list;  (* ops/s, p50 us *)
  mutable busy_ns : int;
  mutable last_ns : int;
  mutable traced_ns : int;
  mutable traced_ops : int;
  gc0 : Gc.stat;
}

let op_count ctx ~nominal_per_s = max 1 (Float.to_int (Float.round (ctx.seconds *. nominal_per_s)))

(* [block_ops] overrides the block length: 1 makes every operation its
   own block. *)
let loop ?block_ops ~n_ops () =
  Gc.compact ();
  let block_ops =
    match block_ops with
    | Some b -> b
    | None -> n_ops / max 1 (min max_blocks (n_ops / block_min_ops))
  in
  {
    n_ops;
    block_ops;
    lat = Stat.Ivec.create ~capacity:n_ops ();
    block_start = 0;
    block_ns = 0;
    blocks = [];
    busy_ns = 0;
    last_ns = 0;
    traced_ns = 0;
    traced_ops = 0;
    gc0 = Gc.quick_stat ();
  }

let ops_done lp = Stat.Ivec.length lp.lat
let more lp = ops_done lp < lp.n_ops

(* Chunk [k] of a traced run is traced when k is odd. *)
let chunk ctx k = if traced ctx then Trace.set_enabled ctx.tr (k land 1 = 1)

let close_block lp =
  let n = ops_done lp - lp.block_start in
  let block = Stat.Ivec.sub lp.lat lp.block_start n in
  Array.sort Int.compare block;
  let p50 = Stat.percentile_sorted (Array.map (fun ns -> float_of_int ns /. 1e3) block) 50.0 in
  lp.blocks <- (float_of_int n /. (float_of_int lp.block_ns /. 1e9), p50) :: lp.blocks;
  lp.block_start <- ops_done lp;
  lp.block_ns <- 0

let timed_op lp tr f =
  let t0 = Trace.now_ns () in
  f ();
  let dt = Trace.now_ns () - t0 in
  Stat.Ivec.push lp.lat dt;
  lp.busy_ns <- lp.busy_ns + dt;
  lp.block_ns <- lp.block_ns + dt;
  lp.last_ns <- dt;
  if Trace.enabled tr then begin
    lp.traced_ns <- lp.traced_ns + dt;
    lp.traced_ops <- lp.traced_ops + 1
  end;
  (* The last block also takes the remainder. *)
  let done_ = ops_done lp in
  if done_ - lp.block_start >= lp.block_ops && lp.n_ops - done_ >= lp.block_ops then close_block lp

(* End-to-end metrics of the loop, its allocation per operation, and —
   when both halves ran — the tracing overhead. *)
let finish ctx lp =
  Trace.set_enabled ctx.tr false;
  let r = ctx.r in
  if ops_done lp > lp.block_start then close_block lp;
  let fastest_quarter ~faster values =
    let sorted = List.sort (fun a b -> if faster a b then -1 else if faster b a then 1 else 0) values in
    Stat.median (Array.of_list (List.filteri (fun i _ -> i < max 1 (List.length values / 4)) sorted))
  in
  Report.e2e r "ops_per_s" (fastest_quarter ~faster:( > ) (List.map fst lp.blocks));
  Report.e2e r "op_p50_us" (fastest_quarter ~faster:( < ) (List.map snd lp.blocks));
  let ops = ops_done lp in
  (match Stat.ivec_percentiles lp.lat ~scale:1e-3 [99.0] with
  | [p99] -> Report.extra r "op_p99_us" ~unit_:"us" p99
  | _ -> assert false);
  Report.extra r "ops_per_s_whole_run" ~unit_:"1/s"
    (float_of_int ops /. (float_of_int lp.busy_ns /. 1e9));
  Report.extra r "blocks" ~unit_:"count" (float_of_int (List.length lp.blocks));
  let g = Gc.quick_stat () in
  Report.e2e r "peak_heap_mb"
    (float_of_int g.Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0);
  let per_op x = x /. float_of_int ops in
  Report.layer r "gc.minor_words_per_op" (per_op (g.Gc.minor_words -. lp.gc0.Gc.minor_words));
  Report.layer r "gc.promoted_words_per_op"
    (per_op (g.Gc.promoted_words -. lp.gc0.Gc.promoted_words));
  Report.layer r "gc.major_collections"
    (float_of_int (g.Gc.major_collections - lp.gc0.Gc.major_collections));
  Report.layer r "workloads.generate_s" ctx.generate_s;
  let plain_ops = ops - lp.traced_ops in
  if lp.traced_ops > 0 && plain_ops > 0 then begin
    let mean ns n = float_of_int ns /. float_of_int n in
    Report.layer r "trace.overhead_pct"
      (100.0
      *. ((mean lp.traced_ns lp.traced_ops /. mean (lp.busy_ns - lp.traced_ns) plain_ops) -. 1.0))
  end

(* --- per-layer accounting ------------------------------------------ *)

(* Attributes the traced spans' self times against [wall_s], the traced
   part of the measured phase: each layer's share, each site's rate,
   and the residual no span covers. *)
let attribute ctx ~wall_s =
  let r = ctx.r in
  if not (wall_s > 0.0) then invalid_arg "Harness.attribute: nothing was traced";
  let stats = Trace.stats ctx.tr in
  List.iter
    (fun (s : Trace.site_stats) ->
      if not (List.mem s.name Report.sites) then
        invalid_arg ("Harness.attribute: site not in the catalogue: " ^ s.name))
    stats;
  let self_of pred =
    List.fold_left (fun acc (s : Trace.site_stats) -> if pred s then acc +. s.self_s else acc) 0.0 stats
  in
  List.iter
    (fun l ->
      Report.layer r (l ^ ".self_pct") (100.0 *. self_of (fun s -> s.layer = l) /. wall_s))
    Report.layers;
  List.iter
    (fun (s : Trace.site_stats) ->
      if s.calls > 0 && s.self_s > 0.0 then
        Report.layer r (s.name ^ ".per_s") (float_of_int s.items /. s.self_s);
      Report.extra r (s.name ^ ".self_s") ~unit_:"s" s.self_s;
      if not (Float.is_nan s.p50_ns) then begin
        Report.extra r (s.name ^ ".self_ns_p50") ~unit_:"ns" s.p50_ns;
        Report.extra r (s.name ^ ".self_ns_p90") ~unit_:"ns" s.p90_ns
      end)
    stats;
  let attributed = self_of (fun _ -> true) in
  Report.layer r "trace.wall_s" wall_s;
  Report.layer r "trace.unattributed_pct" (100.0 *. (wall_s -. attributed) /. wall_s);
  Report.layer r "trace.spans_kept" (float_of_int (Trace.spans_kept ctx.tr));
  (* Self times are disjoint pieces of the traced wall time, so they can
     exceed it only through clock error. *)
  Report.check r "trace.self_times_within_wall" (attributed <= 1.05 *. wall_s)
