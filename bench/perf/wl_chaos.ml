(* check-chaos: the differential checker under drop, duplicate and delay
   faults. Set-up draws the run's pool of chaos schedules from
   consecutive seeds; one operation is one Check.Run.execute — a fresh
   deterministic rig (switch, controller, BFD, peers, recording router,
   fault injectors) driven through the schedule against the flat-FIB
   oracle. Every schedule must pass with no violation. *)

let run (ctx : Harness.ctx) =
  let r = ctx.r and tr = ctx.tr in
  let n_ops = Harness.op_count ctx ~nominal_per_s:500.0 in
  let chunk = Harness.pick ctx ~full:16 ~tiny:2 in
  let s_execute = Trace.site tr "check.run.execute" in
  let schedules =
    Harness.setup ~inputs:true ctx (fun () ->
        Array.init n_ops (fun i ->
            Check.Schedule.generate ~seed:(Int64.of_int (ctx.seed + i)) ~chaos:true ()))
  in
  Report.extra r "check.schedule.generate_us" ~unit_:"us"
    (Option.get (Report.find r "setup_s") *. 1e6 /. float_of_int n_ops);
  let lp = Harness.loop ~n_ops () in
  let k = ref 0 and failed = ref 0 and events = ref 0 in
  while Harness.more lp do
    if !k mod chunk = 0 then Harness.chunk ctx (!k / chunk);
    let schedule = schedules.(!k) in
    let violations = ref [] in
    Trace.op tr !k;
    Harness.timed_op lp tr (fun () ->
        Trace.enter tr s_execute;
        violations := Check.Run.execute schedule;
        Trace.leave tr);
    if !violations <> [] then incr failed;
    events := !events + Check.Schedule.length schedule;
    incr k
  done;
  let ops = Harness.ops_done lp in
  Harness.finish ctx lp;
  Report.ops r ~attempted:ops ~failed:!failed;
  Report.check r "chaos.no_violations" (!failed = 0);
  Report.layer r ~exact:true "check.schedule.events_per_op" (float_of_int !events /. float_of_int ops);
  if Harness.traced ctx then Harness.attribute ctx ~wall_s:(float_of_int lp.traced_ns /. 1e9)
