type t = {
  engine : Sim.Engine.t;
  faults : Sim.Faults.t;
}

(* Management-network RTT/2. *)
let latency = Sim.Time.of_ms 1

let create engine ~name ~seed =
  { engine; faults = Sim.Faults.create engine ~name ~seed Sim.Faults.none }

let faults t = t.faults

let send t f =
  match Sim.Faults.plan t.faults with
  | Sim.Faults.Drop -> ()
  | Sim.Faults.Deliver extras ->
    List.iter
      (fun extra ->
        ignore (Sim.Engine.schedule_after t.engine (Sim.Time.add latency extra) f))
      extras

let partition t ~from ~until =
  Sim.Faults.during t.faults ~from ~until Sim.Faults.partition
