module Ip_table = Hashtbl.Make (struct
  type t = Net.Ipv4.t

  let equal = Net.Ipv4.equal
  let hash = Net.Ipv4.hash
end)

type slot = {
  flow : Flow.t;
  mutable count : int;
  mutable last : Sim.Time.t option;
  mutable max_gap : Sim.Time.t;
}

type t = {
  engine : Sim.Engine.t;
  cam : slot Ip_table.t;
  slots : slot array;
  mutable strays : int;
  mutable total : int;
  mutable delivery_cb : (Flow.t -> unit) option;
}

let create engine ~flows =
  let slots =
    Array.map (fun flow -> { flow; count = 0; last = None; max_gap = Sim.Time.zero }) flows
  in
  let cam = Ip_table.create (Array.length flows * 2) in
  Array.iter (fun slot -> Ip_table.replace cam slot.flow.Flow.dst slot) slots;
  { engine; cam; slots; strays = 0; total = 0; delivery_cb = None }

let deliver t dst =
  t.total <- t.total + 1;
  match Ip_table.find_opt t.cam dst with
  | None -> t.strays <- t.strays + 1
  | Some slot ->
    let now = Sim.Engine.now t.engine in
    (match slot.last with
    | Some last ->
      let gap = Sim.Time.sub now last in
      if Sim.Time.(gap > slot.max_gap) then slot.max_gap <- gap
    | None -> ());
    slot.last <- Some now;
    slot.count <- slot.count + 1;
    let trace = Sim.Engine.trace t.engine in
    if Sim.Trace.enabled trace then
      Sim.Trace.emitf trace now ~category:"sink" "arrival flow#%d" slot.flow.Flow.index;
    match t.delivery_cb with Some f -> f slot.flow | None -> ()

let deliver_packet t (p : Net.Ipv4_packet.t) = deliver t p.dst

let on_delivery t f = t.delivery_cb <- Some f

let arrivals t index = t.slots.(index).count
let last_arrival t index = t.slots.(index).last
let max_gap t index = t.slots.(index).max_gap

let strays t = t.strays
let total t = t.total

let reset_gaps t =
  Array.iter (fun slot -> slot.max_gap <- Sim.Time.zero) t.slots
