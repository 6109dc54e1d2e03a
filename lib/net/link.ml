type side = A | B

let other = function A -> B | B -> A

type t = {
  engine : Sim.Engine.t;
  name : string;
  delay : Sim.Time.t;
  mutable up : bool;
  mutable recv_a : (Ethernet.frame -> unit) option;
  mutable recv_b : (Ethernet.frame -> unit) option;
  mutable epoch : int;
      (* Bumped when the link goes down; deliveries scheduled under an
         older epoch are dropped, modelling loss of in-flight frames. *)
  mutable dropped : int;
  mutable tap : (Sim.Time.t -> Ethernet.frame -> unit) option;
}

let create engine ?(name = "link") ?(delay = Sim.Time.of_us 5) () =
  {
    engine;
    name;
    delay;
    up = true;
    recv_a = None;
    recv_b = None;
    epoch = 0;
    dropped = 0;
    tap = None;
  }

let name t = t.name

let attach t side f =
  match side with
  | A -> t.recv_a <- Some f
  | B -> t.recv_b <- Some f

let receiver t side =
  match side with A -> t.recv_a | B -> t.recv_b

let set_tap t f = t.tap <- Some f

let send t from frame =
  (match t.tap with
  | Some f -> f (Sim.Engine.now t.engine) frame
  | None -> ());
  if not t.up then t.dropped <- t.dropped + 1
  else begin
    let epoch_at_send = t.epoch in
    let deliver () =
      if t.up && t.epoch = epoch_at_send then
        match receiver t (other from) with
        | Some f -> f frame
        | None -> t.dropped <- t.dropped + 1
      else t.dropped <- t.dropped + 1
    in
    ignore (Sim.Engine.schedule_after t.engine t.delay deliver)
  end

let set_up t up =
  if t.up && not up then begin
    t.epoch <- t.epoch + 1;
    Sim.Trace.emitf (Sim.Engine.trace t.engine) (Sim.Engine.now t.engine)
      ~category:"link" "%s: down" t.name
  end
  else if (not t.up) && up then
    Sim.Trace.emitf (Sim.Engine.trace t.engine) (Sim.Engine.now t.engine)
      ~category:"link" "%s: up" t.name;
  t.up <- up

let frames_dropped t = t.dropped
