type op =
  | Set of Net.Prefix.t * Adjacency.t
  | Remove of Net.Prefix.t

let pp_op ppf = function
  | Set (p, adj) -> Fmt.pf ppf "set %a -> %a" Net.Prefix.pp p Adjacency.pp adj
  | Remove p -> Fmt.pf ppf "remove %a" Net.Prefix.pp p

type t = {
  engine : Sim.Engine.t;
  name : string;
  batch_start_latency : Sim.Time.t;
  per_entry_latency : Sim.Time.t;
  table : Adjacency.t Net.Flat_fib.t;
  queue : op Queue.t;
  mutable busy : bool;
  mutable applied : int;
  mutable observer : (op -> unit) option;
}

let default_per_entry_latency = Sim.Time.of_us 281

let create engine ?(name = "fib") ?(batch_start_latency = Sim.Time.of_ms 280)
    ?(per_entry_latency = default_per_entry_latency) () =
  {
    engine;
    name;
    batch_start_latency;
    per_entry_latency;
    table = Net.Flat_fib.create ();
    queue = Queue.create ();
    busy = false;
    applied = 0;
    observer = None;
  }

let apply t op =
  (match op with
  | Set (prefix, adj) -> Net.Flat_fib.insert t.table prefix adj
  | Remove prefix -> Net.Flat_fib.remove t.table prefix);
  t.applied <- t.applied + 1;
  (* Guarded: with tracing off, [emitf] would still walk the format once
     per FIB write. *)
  let trace = Sim.Engine.trace t.engine in
  if Sim.Trace.enabled trace then
    Sim.Trace.emitf trace (Sim.Engine.now t.engine) ~category:"fib" "%s: %a" t.name
      pp_op op;
  match t.observer with Some f -> f op | None -> ()

let rec process_next t =
  match Queue.take_opt t.queue with
  | None -> t.busy <- false
  | Some op ->
    ignore
      (Sim.Engine.schedule_after t.engine t.per_entry_latency (fun () ->
           apply t op;
           process_next t))

let kick t =
  if not t.busy then begin
    t.busy <- true;
    ignore
      (Sim.Engine.schedule_after t.engine t.batch_start_latency (fun () ->
           process_next t))
  end

let enqueue t op =
  Queue.add op t.queue;
  kick t

let enqueue_batch t ops =
  (* One download batch: all ops share a single batch-start latency, as
     a real FIB writer coalesces a burst (e.g. a peer-down's change set)
     instead of paying the start cost per entry. *)
  match ops with
  | [] -> ()
  | ops ->
    List.iter (fun op -> Queue.add op t.queue) ops;
    kick t

let lookup t addr = Net.Flat_fib.lookup_value t.table addr

let[@lint.zero_alloc] lookup_batch t addrs out =
  Net.Flat_fib.lookup_batch t.table addrs out

let on_applied t f = t.observer <- Some f

let size t = Net.Flat_fib.cardinal t.table
let pending t = Queue.length t.queue
let applied_count t = t.applied
let is_busy t = t.busy

let entries t = Net.Flat_fib.to_list t.table
