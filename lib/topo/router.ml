module Prefix_tbl = Hashtbl.Make (struct
  type t = Net.Prefix.t

  let equal = Net.Prefix.equal
  let hash = Net.Prefix.hash
end)

module BG = Supercharger.Backup_group
module Prov = Supercharger.Provisioner

(* The iBGP session to the controller contributes one candidate per
   prefix under this synthetic peer id; local externs use their global
   extern index. The id only needs to be disjoint from extern ids. *)
let rr_peer_id = 10_000

let internal_asn = Bgp.Asn.of_int 65000

type entry =
  | Via of int  (** forward toward this extern (resolved per hop) *)
  | Group of BG.binding  (** supercharged indirection; selection lives in the provisioner *)

let entry_equal a b =
  match (a, b) with
  | Via x, Via y -> x = y
  | Group x, Group y -> x == y
  | Via _, Group _ | Group _, Via _ -> false

type t = {
  engine : Sim.Engine.t;
  spec : Spec.t;
  index : int;
  id : Net.Ipv4.t;
  supercharged : bool;
  igp : Igp.Node.t;
  rib : Bgp.Rib.t;
  speaker : Bgp.Speaker.t;
  mutable rr : Bgp.Speaker.peer option;
  prov : Prov.t option;  (** supercharged only *)
  fib : entry Prefix_tbl.t;
  (* Plain-path FIB model: updates are queued and applied at the legacy
     router's pace (see [fib_batch_start] and [fib_per_entry]). *)
  intent : entry option Prefix_tbl.t;  (** what the queue will converge to *)
  fib_queue : (Net.Prefix.t * entry option) Queue.t;
  mutable fib_draining : bool;
  mutable fib_ops_applied : int;
  advertised : Bgp.Attributes.t Prefix_tbl.t;  (** what we told the reflector *)
  local_routes : (Net.Prefix.t * Bgp.Attributes.t) list array;  (** per extern *)
  ext_alive : bool array;  (** this router's belief about its local externs *)
  mutable revalidate_pending : bool;
  mutable last_lsa_seq_sent : int;
  activity : int ref;
  (* Wired by Net.build: the management path towards the controller. *)
  mutable send_lsa : Igp.Lsa.t -> unit;
  mutable send_extern_event : int -> bool -> unit;
  mutable send_prune : Net.Prefix.t list -> unit;
}

let index t = t.index
let router_id t = t.id
let supercharged t = t.supercharged
let igp t = t.igp
let rib t = t.rib
let speaker t = t.speaker
let provisioner t = t.prov
let fib_ops_applied t = t.fib_ops_applied

let bump t = incr t.activity

(* --- the plain FIB write queue ----------------------------------------- *)

(* A burst starts 10 ms after the first queued write; entries then land
   281 µs apart, the paper's per-prefix FIB write cost. *)
let fib_batch_start = Sim.Time.of_ms 10
let fib_per_entry = Sim.Time.of_us 281

let apply_fib t prefix = function
  | None -> Prefix_tbl.remove t.fib prefix
  | Some e -> Prefix_tbl.replace t.fib prefix e

let rec drain_fib t =
  match Queue.take_opt t.fib_queue with
  | None -> t.fib_draining <- false
  | Some (prefix, e) ->
    apply_fib t prefix e;
    t.fib_ops_applied <- t.fib_ops_applied + 1;
    bump t;
    ignore (Sim.Engine.schedule_after t.engine fib_per_entry (fun () -> drain_fib t))

let enqueue_fib t prefix e =
  let current =
    match Prefix_tbl.find_opt t.intent prefix with
    | Some i -> i
    | None -> Option.map (fun x -> x) (Prefix_tbl.find_opt t.fib prefix)
  in
  let same =
    match (current, e) with
    | None, None -> true
    | Some a, Some b -> entry_equal a b
    | None, Some _ | Some _, None -> false
  in
  if not same then begin
    Prefix_tbl.replace t.intent prefix e;
    Queue.add (prefix, e) t.fib_queue;
    if not t.fib_draining then begin
      t.fib_draining <- true;
      ignore (Sim.Engine.schedule_after t.engine fib_batch_start (fun () -> drain_fib t))
    end
  end

(* --- decision helpers --------------------------------------------------- *)

let host_of_route t (r : Bgp.Route.t) =
  match Spec.extern_of_ip t.spec r.Bgp.Route.attrs.Bgp.Attributes.next_hop with
  | Some e -> Some (e, t.spec.Spec.externs.(e).Spec.at)
  | None -> None

let host_reachable t host =
  host = t.index || Option.is_some (Igp.Node.distance_to t.igp (Spec.router_ip host))

(* First candidate whose BGP next hop resolves to an IGP-reachable edge
   router — plain BGP's next-hop validation. *)
let best_valid t prefix =
  List.find_map
    (fun (r : Bgp.Route.t) ->
      match host_of_route t r with
      | Some (e, host) when host_reachable t host -> Some e
      | Some _ | None -> None)
    (Bgp.Rib.ordered t.rib prefix)

(* The route we owe the reflector: our best route learned from a local
   external peer ("advertise best-external"), attributes unchanged —
   NEXT_HOP stays the extern's address, as iBGP leaves eBGP next hops
   alone. *)
let best_external t prefix =
  List.find_map
    (fun (r : Bgp.Route.t) ->
      if r.Bgp.Route.peer_id <> rr_peer_id then Some r.Bgp.Route.attrs else None)
    (Bgp.Rib.ordered t.rib prefix)

let send_to_rr t update =
  match t.rr with
  | Some peer when Bgp.Session.state peer.Bgp.Speaker.session = Bgp.Session.Established ->
    Bgp.Speaker.send_update t.speaker ~peer_id:peer.Bgp.Speaker.id update
  | Some _ | None -> ()
(* Dropped pre-establishment sends are repaired by the resync that runs
   when the session (re-)establishes. *)

let advertise t prefix =
  let now = best_external t prefix in
  let before = Prefix_tbl.find_opt t.advertised prefix in
  match (before, now) with
  | None, None -> ()
  | Some a, Some b when Bgp.Attributes.equal a b -> ()
  | _, Some attrs ->
    Prefix_tbl.replace t.advertised prefix attrs;
    send_to_rr t { Bgp.Message.withdrawn = []; attrs = Some attrs; nlri = [ prefix ] };
    bump t
  | Some _, None ->
    Prefix_tbl.remove t.advertised prefix;
    send_to_rr t { Bgp.Message.withdrawn = [ prefix ]; attrs = None; nlri = [] };
    bump t

let refresh_fib t prefix =
  if not t.supercharged then
    enqueue_fib t prefix (Option.map (fun e -> Via e) (best_valid t prefix))

let process_changes t (changes : Bgp.Rib.change list) =
  List.iter
    (fun (c : Bgp.Rib.change) ->
      advertise t c.Bgp.Rib.prefix;
      refresh_fib t c.Bgp.Rib.prefix)
    changes

(* --- external peers ----------------------------------------------------- *)

let learn_extern t ~extern routes =
  t.local_routes.(extern) <- routes;
  if t.ext_alive.(extern) then
    List.iter
      (fun (prefix, attrs) ->
        let route =
          Bgp.Route.make ~ebgp:true ~peer_id:extern
            ~peer_router_id:(Spec.extern_ip extern) attrs
        in
        match Bgp.Rib.announce t.rib prefix route with
        | Some change -> process_changes t [ change ]
        | None -> ())
      routes

let detect_extern_down t ~extern =
  if t.ext_alive.(extern) then begin
    t.ext_alive.(extern) <- false;
    bump t;
    process_changes t (Bgp.Rib.withdraw_peer t.rib ~peer_id:extern);
    t.send_extern_event extern false
  end

let detect_extern_up t ~extern =
  if not t.ext_alive.(extern) then begin
    t.ext_alive.(extern) <- true;
    bump t;
    learn_extern t ~extern t.local_routes.(extern);
    t.send_extern_event extern true
  end

(* --- iBGP from the reflector -------------------------------------------- *)

let handle_rr_update t (u : Bgp.Message.update) =
  let changes_w =
    List.concat_map
      (fun p ->
        Option.to_list (Bgp.Rib.withdraw t.rib p ~peer_id:rr_peer_id))
      u.Bgp.Message.withdrawn
  in
  let changes_a =
    match u.Bgp.Message.attrs with
    | None -> []
    | Some attrs ->
      let host =
        match Spec.extern_of_ip t.spec attrs.Bgp.Attributes.next_hop with
        | Some e -> Some t.spec.Spec.externs.(e).Spec.at
        | None -> None
      in
      (match host with
      | None -> []
      | Some host ->
        let igp_cost =
          if host = t.index then 0
          else
            match Igp.Node.distance_to t.igp (Spec.router_ip host) with
            | Some d -> d
            | None -> max_int / 2
        in
        List.concat_map
          (fun prefix ->
            let route =
              Bgp.Route.make ~ebgp:false ~igp_cost ~peer_id:rr_peer_id
                ~peer_router_id:(Spec.router_ip host) attrs
            in
            Option.to_list (Bgp.Rib.announce t.rib prefix route))
          u.Bgp.Message.nlri)
  in
  process_changes t (changes_w @ changes_a)

(* --- IGP events ---------------------------------------------------------- *)

(* On any IGP database change: push our own LSA to the controller when
   it changed (the BGP-LS-style feed), and — on plain routers — rescan
   the FIB after a short debounce: next-hop validation may now prefer a
   different egress or fall back to a local extern. *)
let revalidate t =
  t.revalidate_pending <- false;
  let prefixes =
    Bgp.Rib.fold t.rib ~init:[] ~f:(fun acc prefix _ -> prefix :: acc)
    |> List.sort Net.Prefix.compare
  in
  List.iter (fun prefix -> refresh_fib t prefix) prefixes

(* Next-hop revalidation after an IGP change is debounced by 10 ms. *)
let revalidate_delay = Sim.Time.of_ms 10

let handle_igp_change t =
  let self = Igp.Database.find (Igp.Node.database t.igp) t.id in
  (match self with
  | Some lsa when lsa.Igp.Lsa.seq <> t.last_lsa_seq_sent ->
    t.last_lsa_seq_sent <- lsa.Igp.Lsa.seq;
    t.send_lsa lsa
  | Some _ | None -> ());
  if (not t.supercharged) && not t.revalidate_pending then begin
    t.revalidate_pending <- true;
    ignore
      (Sim.Engine.schedule_after t.engine revalidate_delay (fun () -> revalidate t))
  end

(* --- controller-owned state (supercharged routers) ----------------------- *)

let apply_controlled t prefix entry =
  (match entry with
  | None -> Prefix_tbl.remove t.fib prefix
  | Some e -> Prefix_tbl.replace t.fib prefix e);
  t.fib_ops_applied <- t.fib_ops_applied + 1;
  bump t

(* --- resync -------------------------------------------------------------- *)

let resync_with_controller t =
  (* Re-send our full state: the session (or the management link) may
     have eaten anything while it was down. Everything here is
     idempotent on the controller side. *)
  let adverts =
    Prefix_tbl.fold (fun p attrs acc -> (p, attrs) :: acc) t.advertised []
    |> List.sort (fun (a, _) (b, _) -> Net.Prefix.compare a b)
  in
  List.iter
    (fun (prefix, attrs) ->
      send_to_rr t { Bgp.Message.withdrawn = []; attrs = Some attrs; nlri = [ prefix ] })
    adverts;
  t.send_prune (List.map fst adverts);
  (match Igp.Database.find (Igp.Node.database t.igp) t.id with
  | Some lsa ->
    t.last_lsa_seq_sent <- lsa.Igp.Lsa.seq;
    t.send_lsa lsa
  | None -> ());
  Array.iteri
    (fun k { Spec.at; _ } ->
      if at = t.index then t.send_extern_event k t.ext_alive.(k))
    t.spec.Spec.externs

(* --- lookup / walk support ----------------------------------------------- *)

let lookup t prefix = Prefix_tbl.find_opt t.fib prefix

let choice t prefix =
  match lookup t prefix with
  | None -> None
  | Some (Via e) -> Some e
  | Some (Group b) -> (
    match t.prov with
    | None -> None
    | Some prov -> (
      match Prov.selected prov b with
      | Some ip -> Spec.extern_of_ip t.spec ip
      | None -> None))

let fib_pending t = not (Queue.is_empty t.fib_queue)
let busy t = fib_pending t || t.revalidate_pending

(* --- construction -------------------------------------------------------- *)

let create engine ~spec ~index ~activity =
  let id = Spec.router_ip index in
  let node = spec.Spec.nodes.(index) in
  let igp = Igp.Node.create engine ~router_id:id () in
  let speaker =
    Bgp.Speaker.create engine
      ~name:(Fmt.str "%s.bgp" node.Spec.name)
      ~asn:internal_asn ~router_id:id ()
  in
  let prov =
    if node.Spec.supercharged then begin
      let prov =
        Prov.create ~metrics:(Sim.Engine.metrics engine) ~send:(fun _ -> ()) ()
      in
      Array.iteri
        (fun k (_ : Spec.extern_peer) ->
          Prov.declare_peer prov
            {
              Prov.pi_ip = Spec.extern_ip k;
              pi_mac = Net.Mac.of_int64 (Int64.of_int (0x00aa_0000_0000 + k));
              pi_port = k;
            })
        spec.Spec.externs;
      Some prov
    end
    else None
  in
  let t =
    {
      engine;
      spec;
      index;
      id;
      supercharged = node.Spec.supercharged;
      igp;
      rib = Bgp.Rib.create ();
      speaker;
      rr = None;
      prov;
      fib = Prefix_tbl.create 64;
      intent = Prefix_tbl.create 64;
      fib_queue = Queue.create ();
      fib_draining = false;
      fib_ops_applied = 0;
      advertised = Prefix_tbl.create 64;
      local_routes = Array.make (max 1 (Spec.n_externs spec)) [];
      ext_alive = Array.make (max 1 (Spec.n_externs spec)) true;
      revalidate_pending = false;
      last_lsa_seq_sent = 0;
      activity;
      send_lsa = (fun _ -> ());
      send_extern_event = (fun _ _ -> ());
      send_prune = (fun _ -> ());
    }
  in
  Igp.Node.on_change igp (fun _ -> handle_igp_change t);
  t

let connect_controller t ~channel ~side =
  let peer =
    Bgp.Speaker.add_peer t.speaker ~name:"controller" ~channel ~side
  in
  t.rr <- Some peer;
  Bgp.Speaker.on_update t.speaker (fun _peer u -> handle_rr_update t u);
  Bgp.Speaker.on_peer_established t.speaker (fun _peer -> resync_with_controller t);
  peer

let set_management t ~lsa ~extern_event ~prune =
  t.send_lsa <- lsa;
  t.send_extern_event <- extern_event;
  t.send_prune <- prune

let start t = Bgp.Speaker.start t.speaker
