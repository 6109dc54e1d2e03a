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
}

let create ?(seed = 1L) ?trace ?metrics () =
  let trace = match trace with Some tr -> tr | None -> Trace.create () in
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  {
    clock = Time.zero;
    queue = Heap.create ~cmp:(fun a b -> Time.compare a.at b.at) ();
    root_rng = Rng.create ~seed;
    trace;
    metrics;
    processed = 0;
  }

let now t = t.clock
let rng t = t.root_rng
let trace t = t.trace
let metrics t = t.metrics

let schedule_at t instant f =
  let at = Time.max instant t.clock in
  let ev = { at; run = f; cancelled = false } in
  Heap.push t.queue ev;
  ev

let schedule_after t delay f =
  if Time.is_negative delay then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t (Time.add t.clock delay) f

let cancel ev =
  ev.cancelled <- true

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
  if not ev.cancelled then begin
    t.clock <- Time.max t.clock ev.at;
    t.processed <- t.processed + 1;
    ev.run ()
  end

let step t =
  match Heap.pop t.queue with
  | None -> false
  | Some ev ->
    run_event t ev;
    true

let run ?until ?max_events t =
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let stopped_by_budget = ref false in
  let continue = ref true in
  while !continue do
    if !budget <= 0 then begin
      stopped_by_budget := true;
      continue := false
    end
    else
      match Heap.peek t.queue with
      | None -> continue := false
      | Some ev ->
        let past_horizon =
          match until with Some horizon -> Time.(ev.at > horizon) | None -> false
        in
        if past_horizon then continue := false
        else begin
          match Heap.pop t.queue with
          | Some popped ->
            if not popped.cancelled then decr budget;
            run_event t popped
          | None -> continue := false
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
