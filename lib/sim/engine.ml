type event = {
  at : Time.t;
  run : unit -> unit;
  mutable cancelled : bool;
}

type handle = event

type t = {
  mutable clock : Time.t;
  queue : event Heap.t;
  root_rng : Rng.t;
  trace : Trace.t;
  metrics : Obs.Metrics.t;
  mutable processed : int;
  mutable latest : event;
      (* The most recently scheduled event until it is popped, else
         [no_event]. *)
  no_event : event;  (* never queued; what the queue pops when empty *)
}

let create ?(seed = 1L) () =
  let no_event = { at = Time.zero; run = ignore; cancelled = true } in
  {
    clock = Time.zero;
    queue = Heap.create ~dummy:no_event;
    root_rng = Rng.create ~seed;
    trace = Trace.create ();
    metrics = Obs.Metrics.create ();
    processed = 0;
    latest = no_event;
    no_event;
  }

let now t = t.clock
let rng t = t.root_rng
let trace t = t.trace
let metrics t = t.metrics

let schedule_at t instant f =
  let at = Time.max instant t.clock in
  let ev = { at; run = f; cancelled = false } in
  Heap.push t.queue (Time.to_ns_int at) ev;
  t.latest <- ev;
  ev

let schedule_after t delay f =
  if Time.is_negative delay then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t (Time.add t.clock delay) f

let cancel ev =
  ev.cancelled <- true

let is_latest t ev = ev == t.latest && not ev.cancelled

let every t ?start ~interval f =
  if Time.(interval <= Time.zero) then invalid_arg "Engine.every: interval must be positive";
  (* The outer handle stays valid across ticks: each tick checks it and
     re-arms by scheduling the next one. A single mutable cell carries the
     "cancelled" flag for the whole periodic task. *)
  let first = match start with Some s -> s | None -> Time.add t.clock interval in
  let task = { at = first; run = (fun () -> ()); cancelled = false } in
  let rec tick at () =
    if not task.cancelled then begin
      f ();
      if not task.cancelled then
        let next = Time.add at interval in
        ignore (schedule_at t next (tick next))
    end
  in
  ignore (schedule_at t first (tick first));
  task

let run_event t ev =
  if ev == t.latest then t.latest <- t.no_event;
  if not ev.cancelled then begin
    t.clock <- Time.max t.clock ev.at;
    t.processed <- t.processed + 1;
    ev.run ()
  end

let step t =
  let ev = Heap.pop t.queue in
  if ev == t.no_event then false
  else begin
    run_event t ev;
    true
  end

let run ?until ?max_events t =
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let horizon = match until with Some h -> Time.to_ns_int h | None -> max_int in
  let stopped_by_budget = ref false in
  let continue = ref true in
  while !continue do
    if !budget <= 0 then begin
      stopped_by_budget := true;
      continue := false
    end
    else if Heap.is_empty t.queue || Heap.min_key t.queue > horizon then continue := false
    else begin
      let ev = Heap.pop t.queue in
      if not ev.cancelled then decr budget;
      run_event t ev
    end
  done;
  (* When stopped by the horizon (not the event budget), advance the clock
     to it so that repeated bounded runs observe monotonically increasing
     time. *)
  match until with
  | Some horizon when not !stopped_by_budget -> t.clock <- Time.max t.clock horizon
  | Some _ | None -> ()

(* A cancelled event stays in the queue until its instant, so the count
   is taken over the queue rather than kept beside it. *)
let pending t =
  List.fold_left (fun n ev -> if ev.cancelled then n else n + 1) 0 (Heap.to_list t.queue)
let events_processed t = t.processed
