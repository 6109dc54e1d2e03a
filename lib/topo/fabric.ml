module Prefix_tbl = Hashtbl.Make (struct
  type t = Net.Prefix.t

  let equal = Net.Prefix.equal
  let hash = Net.Prefix.hash
end)

type outcome =
  | Delivered of int
  | Blackhole
  | Unrouted
  | Loop

let pp_outcome ppf = function
  | Delivered e -> Fmt.pf ppf "delivered(extern %d)" e
  | Blackhole -> Fmt.string ppf "blackhole"
  | Unrouted -> Fmt.string ppf "unrouted"
  | Loop -> Fmt.string ppf "loop"

let outcome_equal a b =
  match (a, b) with
  | Delivered x, Delivered y -> x = y
  | Blackhole, Blackhole | Unrouted, Unrouted | Loop, Loop -> true
  | (Delivered _ | Blackhole | Unrouted | Loop), _ -> false

type t = {
  engine : Sim.Engine.t;
  spec : Spec.t;
  routers : Router.t array;
  control : Control.t;
  ctl_links : Control_link.t array;
  links_up : bool array;  (** ground truth *)
  extern_alive : bool array;  (** ground truth *)
  announced : (Net.Prefix.t * Bgp.Attributes.t) list array;  (** per extern *)
  activity : int ref;
}

let engine t = t.engine
let spec t = t.spec
let router t i = t.routers.(i)
let routers t = Array.to_list t.routers
let control t = t.control
let activity t = !(t.activity)
let link_up t l = t.links_up.(l)
let extern_alive t k = t.extern_alive.(k)
let announced t k = t.announced.(k)

let build engine (spec : Spec.t) =
  let n = Spec.n_routers spec in
  let activity = ref 0 in
  let routers = Array.init n (fun index -> Router.create engine ~spec ~index ~activity) in
  Array.iter
    (fun { Spec.ends = a, b; cost; srlg = _ } ->
      Igp.Node.connect ~a:(Router.igp routers.(a)) ~b:(Router.igp routers.(b)) ~cost)
    spec.Spec.links;
  let control = Control.create engine ~spec ~activity in
  let ctl_links =
    Array.init n (fun i ->
        let link =
          Control_link.create engine
            ~name:(Fmt.str "ctl%d" i)
            ~seed:(Int64.of_int (7001 + i))
        in
        let channel = Bgp.Channel.create engine ~name:(Fmt.str "ibgp%d" i) () in
        Bgp.Channel.set_faults channel (Control_link.faults link);
        ignore (Router.connect_controller routers.(i) ~channel ~side:Bgp.Channel.A);
        Control.add_client control ~router:routers.(i) ~channel ~side:Bgp.Channel.B ~link;
        link)
  in
  {
    engine;
    spec;
    routers;
    control;
    ctl_links;
    links_up = Array.make (Array.length spec.Spec.links) true;
    extern_alive = Array.make (max 1 (Spec.n_externs spec)) true;
    announced = Array.make (max 1 (Spec.n_externs spec)) [];
    activity;
  }

let start t =
  Array.iter Router.start t.routers;
  Control.start t.control

(* --- feeds --------------------------------------------------------------- *)

let extern_attrs (spec : Spec.t) k =
  let { Spec.asn; pref; _ } = spec.Spec.externs.(k) in
  Bgp.Attributes.make
    ~as_path:[ Bgp.Attributes.Seq [ Bgp.Asn.of_int asn ] ]
    ~local_pref:pref
    ~next_hop:(Spec.extern_ip k) ()

let announce_extern t ~extern prefixes =
  let attrs = extern_attrs t.spec extern in
  let routes = List.map (fun p -> (p, attrs)) prefixes in
  t.announced.(extern) <- routes;
  let host = t.spec.Spec.externs.(extern).Spec.at in
  Router.learn_extern t.routers.(host) ~extern routes

(* --- fault events -------------------------------------------------------- *)

(* The BFD-style lag between an external peer's real failure or recovery
   and its host router noticing, and the same for a link and the IGP. *)
let detect_delay = Sim.Time.of_ms 30
let igp_detect = Sim.Time.of_ms 30

let fail_extern t ~extern =
  if t.extern_alive.(extern) then begin
    t.extern_alive.(extern) <- false;
    let host = t.spec.Spec.externs.(extern).Spec.at in
    ignore
      (Sim.Engine.schedule_after t.engine detect_delay (fun () ->
           Router.detect_extern_down t.routers.(host) ~extern))
  end

let recover_extern t ~extern =
  if not t.extern_alive.(extern) then begin
    t.extern_alive.(extern) <- true;
    let host = t.spec.Spec.externs.(extern).Spec.at in
    ignore
      (Sim.Engine.schedule_after t.engine detect_delay (fun () ->
           Router.detect_extern_up t.routers.(host) ~extern))
  end

let fail_link t ~link =
  if t.links_up.(link) then begin
    t.links_up.(link) <- false;
    let { Spec.ends = a, b; _ } = t.spec.Spec.links.(link) in
    ignore
      (Sim.Engine.schedule_after t.engine igp_detect (fun () ->
           if not t.links_up.(link) then
             Igp.Node.disconnect ~a:(Router.igp t.routers.(a))
               ~b:(Router.igp t.routers.(b))))
  end

let recover_link t ~link =
  if not t.links_up.(link) then begin
    t.links_up.(link) <- true;
    let { Spec.ends = a, b; cost; _ } = t.spec.Spec.links.(link) in
    ignore
      (Sim.Engine.schedule_after t.engine igp_detect (fun () ->
           if t.links_up.(link) then
             Igp.Node.connect ~a:(Router.igp t.routers.(a))
               ~b:(Router.igp t.routers.(b)) ~cost))
  end

let fail_srlg t ~srlg =
  List.iter (fun link -> fail_link t ~link) (Spec.srlg_members t.spec srlg)

let recover_srlg t ~srlg =
  List.iter (fun link -> recover_link t ~link) (Spec.srlg_members t.spec srlg)

let partition t ~routers ~from ~until =
  List.iter
    (fun i ->
      Control_link.partition t.ctl_links.(i) ~from ~until;
      (* Heal: both sides resync, modelling the retransmission burst a
         real transport would deliver on reconnect. *)
      ignore
        (Sim.Engine.schedule_at t.engine
           (Sim.Time.add until (Sim.Time.of_ms 1))
           (fun () ->
             Router.resync_with_controller t.routers.(i);
             Control.resync_router t.control i)))
    routers

(* --- the forwarding walk ------------------------------------------------- *)

let router_index_of_ip ip =
  let _, _, _, d = Net.Ipv4.to_octets ip in
  d - 1

let outcome t ~ingress prefix =
  let n = Spec.n_routers t.spec in
  let rec hop idx ttl =
    if ttl = 0 then Loop
    else
      let r = t.routers.(idx) in
      match Router.lookup r prefix with
      | None -> Unrouted
      | Some entry -> (
        let chosen =
          match entry with
          | Router.Via e -> Some e
          | Router.Group _ -> Router.choice r prefix
        in
        match chosen with
        | None -> Blackhole  (* group with every member dead: drop rule *)
        | Some e ->
          let host = t.spec.Spec.externs.(e).Spec.at in
          if host = idx then
            if t.extern_alive.(e) then Delivered e else Blackhole
          else (
            match Igp.Node.next_hop_to (Router.igp r) (Spec.router_ip host) with
            | None -> Blackhole  (* no IGP route towards the egress *)
            | Some nh_ip -> (
              let nh = router_index_of_ip nh_ip in
              match Spec.link_between t.spec idx nh with
              | Some l when t.links_up.(l) -> hop nh (ttl - 1)
              | Some _ | None -> Blackhole (* stale SPF points down a dead wire *))))
  in
  hop ingress (4 * n)

(* --- time helpers -------------------------------------------------------- *)

let run_until t time = Sim.Engine.run ~until:time t.engine

let measure t ~flows ~step ~until =
  let outage = Array.make (List.length flows) Sim.Time.zero in
  let rec loop () =
    let now = Sim.Engine.now t.engine in
    if Sim.Time.(now < until) then begin
      let next = Sim.Time.min until (Sim.Time.add now step) in
      Sim.Engine.run ~until:next t.engine;
      List.iteri
        (fun i (ingress, prefix) ->
          match outcome t ~ingress prefix with
          | Delivered _ -> ()
          | Blackhole | Unrouted | Loop ->
            outage.(i) <- Sim.Time.add outage.(i) step)
        flows;
      loop ()
    end
  in
  loop ();
  List.mapi (fun i flow -> (flow, outage.(i))) flows

let busy t =
  Array.exists Router.busy t.routers || not (Control.quiescent t.control)

let settle t ?(budget = Sim.Time.of_sec 60.) () =
  let slice = Sim.Time.of_ms 25 in
  let deadline = Sim.Time.add (Sim.Engine.now t.engine) budget in
  let rec loop last stable =
    let now = Sim.Engine.now t.engine in
    if Sim.Time.(now > deadline) then false
    else begin
      Sim.Engine.run ~until:(Sim.Time.add now slice) t.engine;
      let a = !(t.activity) in
      if a = last && not (busy t) then
        if stable >= 1 then true else loop a (stable + 1)
      else loop a 0
    end
  in
  loop (-1) 0
