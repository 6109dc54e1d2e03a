type peer = {
  id : int;
  peer_name : string;
  session : Session.t;
}

type t = {
  engine : Sim.Engine.t;
  name : string;
  asn : Asn.t;
  router_id : Net.Ipv4.t;
  mutable peer_list : peer list; (* reversed *)
  mutable update_cb : (peer -> Message.update -> unit) option;
  mutable established_cb : (peer -> unit) option;
  mutable down_cb : (peer -> Session.down_reason -> unit) option;
}

let create engine ~name ~asn ~router_id () =
  {
    engine;
    name;
    asn;
    router_id;
    peer_list = [];
    update_cb = None;
    established_cb = None;
    down_cb = None;
  }

let name t = t.name
let asn t = t.asn
let router_id t = t.router_id

let add_peer t ~name ~channel ~side =
  let id = List.length t.peer_list in
  let session =
    Session.create t.engine ~channel ~side ~asn:t.asn ~router_id:t.router_id
      ~name:(Fmt.str "%s->%s" t.name name)
      ()
  in
  let peer = { id; peer_name = name; session } in
  Session.on_update session (fun u ->
      match t.update_cb with Some f -> f peer u | None -> ());
  Session.on_established session (fun _open ->
      match t.established_cb with Some f -> f peer | None -> ());
  Session.on_down session (fun reason ->
      match t.down_cb with Some f -> f peer reason | None -> ());
  t.peer_list <- peer :: t.peer_list;
  peer

let peers t = List.rev t.peer_list

let find_peer t id =
  match List.find_opt (fun p -> p.id = id) t.peer_list with
  | Some p -> p
  | None -> raise Not_found

let start t = List.iter (fun p -> Session.start p.session) (peers t)

let on_update t f = t.update_cb <- Some f
let on_peer_established t f = t.established_cb <- Some f
let on_peer_down t f = t.down_cb <- Some f

let send_update t ~peer_id u = Session.send_update (find_peer t peer_id).session u

let established_count t =
  List.length
    (List.filter (fun p -> Session.state p.session = Session.Established) t.peer_list)
