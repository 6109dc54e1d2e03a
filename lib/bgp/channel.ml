type side = A | B

let flip = function A -> B | B -> A

(* The channel's most recent delivery event and the messages it will
   deliver to [to_side] at [at]. Only the engine's latest event can take
   more work, so one per channel is enough. *)
type newest =
  | No_batch
  | Batch of {
      at : Sim.Time.t;
      to_side : side;
      handle : Sim.Engine.handle;
      queue : Message.t Queue.t;
    }

type t = {
  engine : Sim.Engine.t;
  name : string;
  delay : Sim.Time.t;
  use_codec : bool;
  fragment : int option;
  reassembly_a : Stream.t;
  reassembly_b : Stream.t;
  mutable recv_a : (Message.t -> unit) option;
  mutable recv_b : (Message.t -> unit) option;
  mutable break_a : (unit -> unit) option;
  mutable break_b : (unit -> unit) option;
  mutable broken : bool;
  mutable epoch : int;
  mutable delivered : int;
  mutable faults : Sim.Faults.t option;
  (* FIFO floor per receiving side for the fragmented path: a byte
     stream must not reorder, so fault delays only stretch it. *)
  mutable fifo_floor_a : Sim.Time.t;
  mutable fifo_floor_b : Sim.Time.t;
  mutable newest : newest;  (* unfragmented path only *)
}

let create engine ?(name = "chan") ?(delay = Sim.Time.of_us 200)
    ?(use_codec = false) ?fragment () =
  (match fragment with
  | Some n when n <= 0 -> invalid_arg "Channel.create: fragment must be positive"
  | Some _ when not use_codec ->
    invalid_arg "Channel.create: fragment requires use_codec"
  | Some _ | None -> ());
  {
    engine;
    name;
    delay;
    use_codec;
    fragment;
    reassembly_a = Stream.create ();
    reassembly_b = Stream.create ();
    recv_a = None;
    recv_b = None;
    break_a = None;
    break_b = None;
    broken = false;
    epoch = 0;
    delivered = 0;
    faults = None;
    fifo_floor_a = Sim.Time.zero;
    fifo_floor_b = Sim.Time.zero;
    newest = No_batch;
  }

let name t = t.name

let set_faults t faults = t.faults <- Some faults

let plan_faults t =
  match t.faults with
  | None -> Sim.Faults.Deliver [Sim.Time.zero]
  | Some f -> Sim.Faults.plan f

let attach t side f =
  match side with A -> t.recv_a <- Some f | B -> t.recv_b <- Some f

let on_break t side f =
  match side with A -> t.break_a <- Some f | B -> t.break_b <- Some f

let receiver t side = match side with A -> t.recv_a | B -> t.recv_b

let through_codec t msg =
  if not t.use_codec then msg
  else
    match Codec.decode_exact (Codec.encode msg) with
    | Ok decoded -> decoded
    | Error err ->
      invalid_arg
        (Fmt.str "Channel %s: message failed codec round-trip: %a" t.name
           Net.Wire.pp_error err)

let reassembler t side = match side with A -> t.reassembly_a | B -> t.reassembly_b

(* With [fragment] set, the encoded message is cut into TCP-segment-like
   chunks delivered separately and reassembled by the receiving side's
   {!Stream} — message boundaries no longer align with deliveries, as on
   a real socket. Faults act on the whole message (the stream stands in
   for TCP, which already hides segment loss and duplication): a Drop
   verdict discards every chunk, and an extra delay stretches the stream
   without reordering it — the FIFO floor keeps later messages from
   overtaking earlier delayed ones mid-stream. *)
let send_fragmented t from msg size =
  match plan_faults t with
  | Sim.Faults.Drop -> ()
  | Sim.Faults.Deliver (extra :: _) ->
    let wire = Codec.encode msg in
    let epoch_at_send = t.epoch in
    let to_side = flip from in
    let at =
      let earliest =
        Sim.Time.add (Sim.Engine.now t.engine) (Sim.Time.add t.delay extra)
      in
      match to_side with
      | A ->
        let at = Sim.Time.max earliest t.fifo_floor_a in
        t.fifo_floor_a <- at;
        at
      | B ->
        let at = Sim.Time.max earliest t.fifo_floor_b in
        t.fifo_floor_b <- at;
        at
    in
    let rec cut offset =
      if offset < String.length wire then begin
        let len = min size (String.length wire - offset) in
        let chunk = String.sub wire offset len in
        let deliver () =
          if (not t.broken) && t.epoch = epoch_at_send then
            match Stream.feed (reassembler t to_side) chunk with
            | Ok msgs ->
              List.iter
                (fun m ->
                  match receiver t to_side with
                  | Some f ->
                    t.delivered <- t.delivered + 1;
                    f m
                  | None -> ())
                msgs
            | Error err ->
              invalid_arg
                (Fmt.str "Channel %s: stream reassembly failed: %a" t.name
                   Net.Wire.pp_error err)
        in
        ignore (Sim.Engine.schedule_at t.engine at deliver);
        cut (offset + len)
      end
    in
    cut 0
  | Sim.Faults.Deliver [] -> ()

(* The broken and epoch checks stay per message, so a break by the
   receiver of one message still loses the rest of its batch. A batch
   that has started can take no more messages; dropping it from
   [newest] keeps the channel from holding on to it. *)
let deliver_batch t to_side epoch queue =
  (match t.newest with
  | Batch b when b.queue == queue -> t.newest <- No_batch
  | Batch _ | No_batch -> ());
  while not (Queue.is_empty queue) do
    let msg = Queue.take queue in
    if (not t.broken) && t.epoch = epoch then
      match receiver t to_side with
      | Some f ->
        t.delivered <- t.delivered + 1;
        f msg
      | None -> ()
  done

(* Joins the newest batch when it goes to the same side at the same
   instant and is still the engine's latest event: the message then runs
   exactly where an event of its own would (see [Sim.Engine]'s "Joining
   an event"). Otherwise opens a new batch. *)
let enqueue t to_side delay msg =
  let at = Sim.Time.add (Sim.Engine.now t.engine) delay in
  match t.newest with
  | Batch b
    when b.to_side = to_side && Sim.Time.equal b.at at
         && Sim.Engine.is_latest t.engine b.handle ->
    Queue.add msg b.queue
  | Batch _ | No_batch ->
    let queue = Queue.create () in
    Queue.add msg queue;
    let epoch = t.epoch in
    let handle =
      Sim.Engine.schedule_after t.engine delay (fun () -> deliver_batch t to_side epoch queue)
    in
    t.newest <- Batch { at; to_side; handle; queue }

let send t from msg =
  if not t.broken then
    match t.fragment with
    | Some size -> send_fragmented t from msg size
    | None -> (
      let msg = through_codec t msg in
      match plan_faults t with
      | Sim.Faults.Drop -> ()
      | Sim.Faults.Deliver extras ->
        List.iter (fun extra -> enqueue t (flip from) (Sim.Time.add t.delay extra) msg) extras)

let break t =
  if not t.broken then begin
    t.broken <- true;
    t.epoch <- t.epoch + 1;
    Sim.Trace.emitf (Sim.Engine.trace t.engine) (Sim.Engine.now t.engine)
      ~category:"channel" "%s: broken" t.name;
    let fire cb = match cb with Some f -> ignore (Sim.Engine.schedule_after t.engine t.delay f) | None -> () in
    fire t.break_a;
    fire t.break_b
  end

let is_broken t = t.broken

let messages_delivered t = t.delivered
