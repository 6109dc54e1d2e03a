module Prefix_tbl = Hashtbl.Make (struct
  type t = Net.Prefix.t

  let equal = Net.Prefix.equal
  let hash = Net.Prefix.hash
end)

module BG = Supercharger.Backup_group
module Prov = Supercharger.Provisioner

let controller_id = Net.Ipv4.of_octets 10 0 0 254

(* Per supercharged router: its backup-group registry (tuples are
   ranked from *that* router's vantage point, so registries are not
   shared), the controller-side shadow of what was pushed, and the
   per-extern aliveness it has been told about. *)
type sc = {
  sc_bg : BG.t;
  sc_entries : Router.entry Prefix_tbl.t;
  sc_alive : bool array;
}

type client = {
  c_index : int;
  c_router : Router.t;
  c_peer : Bgp.Speaker.peer;
  c_link : Control_link.t;
  c_sc : sc option;
}

type t = {
  engine : Sim.Engine.t;
  spec : Spec.t;
  speaker : Bgp.Speaker.t;
  rr_rib : Bgp.Rib.t;  (** per-origin-router best-external adverts *)
  mutable clients : client list;  (** in router-index order *)
  lsdb : Igp.Database.t;
  spf_cache : Igp.Spf.table option array;
  extern_alive : bool array;  (** controller belief, fed by router signals *)
  dirty : unit Prefix_tbl.t;
  mutable rebind_handle : Sim.Engine.handle option;
  activity : int ref;
  mutable reflects_sent : int;
  mutable fast_repoints : int;
  mutable rebind_pushes : int;
}

let reflects_sent t = t.reflects_sent
let fast_repoints t = t.fast_repoints
let rebind_pushes t = t.rebind_pushes
let lsdb t = t.lsdb
let speaker t = t.speaker

let bump t = incr t.activity

let client_of_peer t (peer : Bgp.Speaker.peer) =
  List.find_opt (fun c -> c.c_peer.Bgp.Speaker.id = peer.Bgp.Speaker.id) t.clients

let client t index = List.find_opt (fun c -> c.c_index = index) t.clients

let established (c : client) =
  Bgp.Session.state c.c_peer.Bgp.Speaker.session = Bgp.Session.Established

let send_client t c update =
  if established c then begin
    Bgp.Speaker.send_update t.speaker ~peer_id:c.c_peer.Bgp.Speaker.id update;
    t.reflects_sent <- t.reflects_sent + 1;
    bump t
  end

(* --- SPF over the controller's LSDB ------------------------------------- *)

let spf_for t i =
  match t.spf_cache.(i) with
  | Some table -> table
  | None ->
    let table =
      Igp.Spf.compute ~source:(Spec.router_ip i) ~lsas:(Igp.Database.all t.lsdb)
    in
    t.spf_cache.(i) <- Some table;
    table

let invalidate_spf t = Array.fill t.spf_cache 0 (Array.length t.spf_cache) None

let reachable_from t i host =
  i = host || Igp.Spf.reachable (spf_for t i) (Spec.router_ip host)

let distance_from t i host =
  if i = host then 0
  else
    match Igp.Spf.distance (spf_for t i) (Spec.router_ip host) with
    | Some d -> d
    | None -> max_int / 2

(* --- backup-group ranking ------------------------------------------------ *)

(* Rank every viable egress for (router, prefix) from that router's
   vantage point: the global attribute order first, then the router's
   own IGP distance to the egress — the decision process re-run with
   per-ingress costs. Excludes externs the controller believes dead and
   egress routers the ingress cannot reach. *)
let ranked_egresses t ~router prefix =
  Bgp.Rib.ordered t.rr_rib prefix
  |> List.filter_map (fun (r : Bgp.Route.t) ->
         match Spec.extern_of_ip t.spec r.Bgp.Route.attrs.Bgp.Attributes.next_hop with
         | None -> None
         | Some e ->
           let host = t.spec.Spec.externs.(e).Spec.at in
           if t.extern_alive.(e) && reachable_from t router host then
             Some
               ( e,
                 Bgp.Route.make ~ebgp:false
                   ~igp_cost:(distance_from t router host)
                   ~peer_id:r.Bgp.Route.peer_id
                   ~peer_router_id:r.Bgp.Route.peer_router_id
                   r.Bgp.Route.attrs )
           else None)
  |> List.stable_sort (fun (_, a) (_, b) -> Bgp.Decision.compare a b)
  |> List.map fst

let desired_entry t c prefix =
  match c.c_sc with
  | None -> None
  | Some sc -> (
    match ranked_egresses t ~router:c.c_index prefix with
    | [] -> None
    | [ e ] -> Some (Router.Via e)
    | e1 :: e2 :: _ ->
      Some (Router.Group (BG.find_or_create sc.sc_bg [ Spec.extern_ip e1; Spec.extern_ip e2 ])))

let push_entry t c prefix entry =
  let prov =
    match Router.provisioner c.c_router with
    | Some p -> p
    | None -> invalid_arg "Topo.Control: supercharged router without provisioner"
  in
  let router = c.c_router in
  t.rebind_pushes <- t.rebind_pushes + 1;
  Control_link.send c.c_link (fun () ->
      (match entry with
      | Some (Router.Group b) -> Prov.install_group prov b
      | Some (Router.Via _) | None -> ());
      Router.apply_controlled router prefix entry)

let rebind_prefix t c prefix =
  match c.c_sc with
  | None -> ()
  | Some sc ->
    let next = desired_entry t c prefix in
    let current = Prefix_tbl.find_opt sc.sc_entries prefix in
    let same =
      match (current, next) with
      | None, None -> true
      | Some (Router.Via a), Some (Router.Via b) -> a = b
      | Some (Router.Group a), Some (Router.Group b) -> a == b
      | _, _ -> false
    in
    if not same then begin
      (match current with
      | Some (Router.Group b) -> BG.release sc.sc_bg b
      | Some (Router.Via _) | None -> ());
      (match next with
      | Some (Router.Group b) -> BG.acquire sc.sc_bg b
      | Some (Router.Via _) | None -> ());
      (match next with
      | None -> Prefix_tbl.remove sc.sc_entries prefix
      | Some e -> Prefix_tbl.replace sc.sc_entries prefix e);
      push_entry t c prefix next
    end

(* Aliveness, per (router, extern): the extern must be up *and* its
   host edge router reachable from this ingress. Diffs against what the
   provisioner was last told become fast-path commands. *)
let sync_aliveness t c =
  match c.c_sc with
  | None -> ()
  | Some sc ->
    let prov =
      match Router.provisioner c.c_router with
      | Some p -> p
      | None -> invalid_arg "Topo.Control: supercharged router without provisioner"
    in
    Array.iteri
      (fun k (ext : Spec.extern_peer) ->
        let ok = t.extern_alive.(k) && reachable_from t c.c_index ext.Spec.at in
        if ok <> sc.sc_alive.(k) then begin
          sc.sc_alive.(k) <- ok;
          t.fast_repoints <- t.fast_repoints + 1;
          let ip = Spec.extern_ip k in
          let bg = sc.sc_bg in
          if ok then
            Control_link.send c.c_link (fun () ->
                Prov.revive_peer prov ip;
                ignore (Prov.reinstall_groups prov (BG.all bg)))
          else
            Control_link.send c.c_link (fun () ->
                ignore (Prov.fail_peer prov ip (BG.all bg)))
        end)
      t.spec.Spec.externs

let sorted_dirty t =
  Prefix_tbl.fold (fun p () acc -> p :: acc) t.dirty []
  |> List.sort Net.Prefix.compare

let rebind_pass t =
  t.rebind_handle <- None;
  let prefixes = sorted_dirty t in
  Prefix_tbl.reset t.dirty;
  List.iter
    (fun c ->
      if Option.is_some c.c_sc then begin
        sync_aliveness t c;
        List.iter (fun p -> rebind_prefix t c p) prefixes
      end)
    t.clients;
  bump t

(* Debounce between a BGP or LSDB change and the rebind pass. *)
let rebind_delay = Sim.Time.of_ms 25

let schedule_rebind t =
  if Option.is_none t.rebind_handle then
    t.rebind_handle <-
      Some (Sim.Engine.schedule_after t.engine rebind_delay (fun () -> rebind_pass t))

let mark_dirty t prefix =
  Prefix_tbl.replace t.dirty prefix ();
  schedule_rebind t

let mark_all_dirty t =
  Bgp.Rib.fold t.rr_rib ~init:() ~f:(fun () prefix _ -> Prefix_tbl.replace t.dirty prefix ());
  schedule_rebind t

(* --- route reflection ---------------------------------------------------- *)

(* Standard reflector behaviour over the per-origin advert store: when
   a prefix's best origin changes, every other client learns the new
   best and the originating client gets a withdraw (it holds the real
   eBGP route itself). *)
let reflect t prefix ~(before : Bgp.Route.t option) ~(after : Bgp.Route.t option) =
  let changed =
    match (before, after) with
    | None, None -> false
    | Some a, Some b -> not (Bgp.Route.equal a b)
    | None, Some _ | Some _, None -> true
  in
  if changed then
    match after with
    | None ->
      List.iter
        (fun c ->
          send_client t c { Bgp.Message.withdrawn = [ prefix ]; attrs = None; nlri = [] })
        t.clients
    | Some best ->
      List.iter
        (fun c ->
          if c.c_index = best.Bgp.Route.peer_id then
            send_client t c
              { Bgp.Message.withdrawn = [ prefix ]; attrs = None; nlri = [] }
          else
            send_client t c
              {
                Bgp.Message.withdrawn = [];
                attrs = Some best.Bgp.Route.attrs;
                nlri = [ prefix ];
              })
        t.clients

let on_rr_change t (change : Bgp.Rib.change) =
  let hd = function
    | [] -> None
    | r :: _ -> Some r
  in
  reflect t change.Bgp.Rib.prefix ~before:(hd change.Bgp.Rib.before)
    ~after:(hd change.Bgp.Rib.after);
  mark_dirty t change.Bgp.Rib.prefix

let handle_client_update t c (u : Bgp.Message.update) =
  let changes =
    Bgp.Rib.apply_update t.rr_rib ~peer_id:c.c_index
      ~peer_router_id:(Spec.router_ip c.c_index) ~ebgp:false u
  in
  List.iter (fun change -> on_rr_change t change) changes

(* --- management-plane inputs --------------------------------------------- *)

let receive_lsa t lsa =
  match Igp.Database.install t.lsdb lsa with
  | Igp.Database.Installed ->
    invalidate_spf t;
    bump t;
    mark_all_dirty t
  | Igp.Database.Duplicate | Igp.Database.Stale -> ()

let extern_event t ~extern up =
  if t.extern_alive.(extern) <> up then begin
    t.extern_alive.(extern) <- up;
    bump t;
    (* Fast path: re-point straight away, don't wait for the rebind
       debounce — this is the supercharged failover. *)
    List.iter (fun c -> sync_aliveness t c) t.clients;
    mark_all_dirty t
  end

let prune_client t ~index prefixes =
  let keep = Prefix_tbl.create 64 in
  List.iter (fun p -> Prefix_tbl.replace keep p ()) prefixes;
  let stale =
    Bgp.Rib.peer_prefixes t.rr_rib ~peer_id:index
    |> List.filter (fun p -> not (Prefix_tbl.mem keep p))
  in
  List.iter
    (fun p ->
      match Bgp.Rib.withdraw t.rr_rib p ~peer_id:index with
      | Some change -> on_rr_change t change
      | None -> ())
    stale

(* --- resync -------------------------------------------------------------- *)

let resync_router t index =
  match client t index with
  | None -> ()
  | Some c ->
    (* Re-reflect the full best set (the client's RIB absorbs identical
       re-announcements), then rebuild the supercharged state from
       scratch: provisioner resync plus a re-push of every entry. *)
    let prefixes =
      Bgp.Rib.fold t.rr_rib ~init:[] ~f:(fun acc prefix _ -> prefix :: acc)
      |> List.sort Net.Prefix.compare
    in
    List.iter
      (fun prefix ->
        match Bgp.Rib.best t.rr_rib prefix with
        | Some best when best.Bgp.Route.peer_id <> index ->
          send_client t c
            {
              Bgp.Message.withdrawn = [];
              attrs = Some best.Bgp.Route.attrs;
              nlri = [ prefix ];
            }
        | Some _ | None ->
          send_client t c { Bgp.Message.withdrawn = [ prefix ]; attrs = None; nlri = [] })
      prefixes;
    (match c.c_sc with
    | None -> ()
    | Some sc ->
      Array.fill sc.sc_alive 0 (Array.length sc.sc_alive) true;
      sync_aliveness t c;
      (match Router.provisioner c.c_router with
      | Some prov ->
        let bg = sc.sc_bg in
        Control_link.send c.c_link (fun () -> ignore (Prov.resync prov (BG.all bg)))
      | None -> ());
      let entries =
        Prefix_tbl.fold (fun p e acc -> (p, e) :: acc) sc.sc_entries []
        |> List.sort (fun (a, _) (b, _) -> Net.Prefix.compare a b)
      in
      List.iter (fun (p, e) -> push_entry t c p (Some e)) entries);
    (* The shadow may predate the outage; a full rebind follows. *)
    mark_all_dirty t;
    bump t

(* --- wiring -------------------------------------------------------------- *)

let create engine ~spec ~activity =
  let t =
    {
      engine;
      spec;
      speaker =
        Bgp.Speaker.create engine ~name:"controller.rr" ~asn:Router.internal_asn
          ~router_id:controller_id ();
      rr_rib = Bgp.Rib.create ();
      clients = [];
      lsdb = Igp.Database.create ();
      spf_cache = Array.make (Spec.n_routers spec) None;
      extern_alive = Array.make (max 1 (Spec.n_externs spec)) true;
      dirty = Prefix_tbl.create 64;
      rebind_handle = None;
      activity;
      reflects_sent = 0;
      fast_repoints = 0;
      rebind_pushes = 0;
    }
  in
  Bgp.Speaker.on_update t.speaker (fun peer u ->
      match client_of_peer t peer with
      | Some c -> handle_client_update t c u
      | None -> ());
  Bgp.Speaker.on_peer_established t.speaker (fun peer ->
      match client_of_peer t peer with
      | Some c -> resync_router t c.c_index
      | None -> ());
  t

let add_client t ~router ~channel ~side ~link =
  let index = Router.index router in
  let peer =
    Bgp.Speaker.add_peer t.speaker
      ~name:t.spec.Spec.nodes.(index).Spec.name
      ~channel ~side
  in
  let c_sc =
    if Router.supercharged router then
      Some
        {
          sc_bg = BG.create (Supercharger.Vnh.create ());
          sc_entries = Prefix_tbl.create 64;
          sc_alive = Array.make (max 1 (Spec.n_externs t.spec)) true;
        }
    else None
  in
  let c = { c_index = index; c_router = router; c_peer = peer; c_link = link; c_sc } in
  t.clients <- t.clients @ [ c ];
  Router.set_management router
    ~lsa:(fun lsa -> Control_link.send link (fun () -> receive_lsa t lsa))
    ~extern_event:(fun extern up ->
      Control_link.send link (fun () -> extern_event t ~extern up))
    ~prune:(fun prefixes ->
      Control_link.send link (fun () -> prune_client t ~index prefixes))

let start t = Bgp.Speaker.start t.speaker
let quiescent t = Option.is_none t.rebind_handle
