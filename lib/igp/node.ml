type t = {
  engine : Sim.Engine.t;
  router_id : Net.Ipv4.t;
  flood_delay : Sim.Time.t;
  db : Database.t;
  mutable neighbors : neighbor list;
  mutable seq : int;
  mutable change_cb : ((Net.Ipv4.t * int) list -> unit) option;
  mutable spf_cache : Spf.table option;
      (* memoized SPF, invalidated on every database change; queries
         between changes must not re-run Dijkstra *)
}

and neighbor = {
  peer : t;
  mutable cost : int;
}

let spf t =
  match t.spf_cache with
  | Some table -> table
  | None ->
    let table = Spf.compute ~source:t.router_id ~lsas:(Database.all t.db) in
    t.spf_cache <- Some table;
    table

let spf_and_notify t =
  match t.change_cb with
  | Some f -> f (Spf.to_alist (spf t))
  | None -> ()

(* Receiving a flooded LSA: install if newer, then flood onwards to every
   neighbor except the one it came from. *)
let rec receive t ~from (lsa : Lsa.t) =
  match Database.install t.db lsa with
  | Database.Installed ->
    t.spf_cache <- None;
    flood t ~except:(Some from) lsa;
    spf_and_notify t
  | Database.Duplicate | Database.Stale -> ()

and flood t ~except lsa =
  List.iter
    (fun n ->
      let skip =
        match except with
        | Some origin -> Net.Ipv4.equal n.peer.router_id origin
        | None -> false
      in
      if not skip then begin
        let target = n.peer in
        let from = t.router_id in
        ignore
          (Sim.Engine.schedule_after t.engine t.flood_delay (fun () ->
               receive target ~from lsa))
      end)
    t.neighbors

let originate t =
  t.seq <- t.seq + 1;
  let lsa =
    Lsa.make ~origin:t.router_id ~seq:t.seq
      ~links:(List.map (fun n -> (n.peer.router_id, n.cost)) t.neighbors)
  in
  ignore (Database.install t.db lsa);
  t.spf_cache <- None;
  flood t ~except:None lsa;
  spf_and_notify t;
  Sim.Trace.emitf (Sim.Engine.trace t.engine) (Sim.Engine.now t.engine)
    ~category:"igp" "%a originates %a" Net.Ipv4.pp t.router_id Lsa.pp lsa

let create engine ~router_id ?(flood_delay = Sim.Time.of_ms 1) () =
  let t =
    {
      engine;
      router_id;
      flood_delay;
      db = Database.create ();
      neighbors = [];
      seq = 0;
      change_cb = None;
      spf_cache = None;
    }
  in
  originate t;
  t

let router_id t = t.router_id

let find_neighbor t peer_id =
  List.find_opt (fun n -> Net.Ipv4.equal n.peer.router_id peer_id) t.neighbors

let connect ~a ~b ~cost =
  if cost <= 0 then invalid_arg "Igp.Node.connect: cost must be positive";
  (match find_neighbor a b.router_id with
  | Some n -> n.cost <- cost
  | None -> a.neighbors <- { peer = b; cost } :: a.neighbors);
  (match find_neighbor b a.router_id with
  | Some n -> n.cost <- cost
  | None -> b.neighbors <- { peer = a; cost } :: b.neighbors);
  (* Each end learns the other's current database (adjacency bring-up
     exchanges the LSDB, like an OSPF database description exchange),
     then re-originates. *)
  List.iter (fun lsa -> ignore (Database.install a.db lsa)) (Database.all b.db);
  List.iter (fun lsa -> ignore (Database.install b.db lsa)) (Database.all a.db);
  originate a;
  originate b

let set_cost ~a ~b ~cost =
  if cost <= 0 then invalid_arg "Igp.Node.set_cost: cost must be positive";
  match find_neighbor a b.router_id with
  | Some n ->
    n.cost <- cost;
    originate a
  | None -> invalid_arg "Igp.Node.set_cost: not adjacent"

let disconnect ~a ~b =
  a.neighbors <-
    List.filter (fun n -> not (Net.Ipv4.equal n.peer.router_id b.router_id)) a.neighbors;
  b.neighbors <-
    List.filter (fun n -> not (Net.Ipv4.equal n.peer.router_id a.router_id)) b.neighbors;
  originate a;
  originate b

let database t = t.db
let distances t = Spf.to_alist (spf t)
let distance_to t target = Spf.distance (spf t) target
let next_hop_to t target = Spf.first_hop (spf t) target

let on_change t f = t.change_cb <- Some f
