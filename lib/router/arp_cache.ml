module Ip_table = Hashtbl.Make (struct
  type t = Net.Ipv4.t

  let equal = Net.Ipv4.equal
  let hash = Net.Ipv4.hash
end)

type pending = {
  interface : int;
  mutable waiters : (Net.Mac.t -> unit) list; (* reversed *)
  mutable tries : int;
  mutable retry_task : Sim.Engine.handle option;
}

type t = {
  engine : Sim.Engine.t;
  name : string;
  retry_interval : Sim.Time.t;
  max_retries : int;
  send_request : interface:int -> target:Net.Ipv4.t -> unit;
  cache : Net.Mac.t Ip_table.t;
  pending : pending Ip_table.t;
}

let create engine ?(name = "arp") ?(retry_interval = Sim.Time.of_sec 1.0)
    ?(max_retries = 4) ~send_request () =
  {
    engine;
    name;
    retry_interval;
    max_retries;
    send_request;
    cache = Ip_table.create 64;
    pending = Ip_table.create 16;
  }

let lookup t ip = Ip_table.find_opt t.cache ip

let rec schedule_retry t ip p =
  p.retry_task <-
    Some
      (Sim.Engine.schedule_after t.engine t.retry_interval (fun () ->
           if Ip_table.mem t.pending ip then begin
             if p.tries >= t.max_retries then begin
               Sim.Trace.emitf (Sim.Engine.trace t.engine)
                 (Sim.Engine.now t.engine) ~category:"arp"
                 "%s: giving up on %a after %d tries" t.name Net.Ipv4.pp ip
                 p.tries;
               Ip_table.remove t.pending ip
             end
             else begin
               p.tries <- p.tries + 1;
               t.send_request ~interface:p.interface ~target:ip;
               schedule_retry t ip p
             end
           end))

let resolve t ~interface ip k =
  match lookup t ip with
  | Some mac -> k mac
  | None -> (
    match Ip_table.find_opt t.pending ip with
    | Some p -> p.waiters <- k :: p.waiters
    | None ->
      let p = { interface; waiters = [k]; tries = 1; retry_task = None } in
      Ip_table.replace t.pending ip p;
      t.send_request ~interface ~target:ip;
      schedule_retry t ip p)

let learn t ip mac =
  Ip_table.replace t.cache ip mac;
  match Ip_table.find_opt t.pending ip with
  | None -> ()
  | Some p ->
    Ip_table.remove t.pending ip;
    (match p.retry_task with Some h -> Sim.Engine.cancel h | None -> ());
    List.iter (fun k -> k mac) (List.rev p.waiters)

let pending_count t = Ip_table.length t.pending
