(* Internet-scale differential harness: the sharded, incrementally
   re-ranked Bgp.Rib against the naive flat Oracle, both driven by the
   same workload-generated feeds. Where Run proves the full pipeline
   forwards like the oracle on small topologies, this module proves the
   *control-plane data structure* ranks like the naive decision process
   at 10^5..10^6 prefixes — the precondition for trusting every RIB
   optimisation the scale work adds. *)

type event =
  | Storm of { peer : int; share_pct : int }
  | Readvertise of { peer : int }
  | Churn of { sub_seed : int64; events : int }
  | Peer_down of int
  | Peer_up of int

type t = {
  seed : int64;
  n_peers : int;
  steps : event list;
}

let length t = List.length t.steps

let pp_event ppf = function
  | Storm { peer; share_pct } -> Fmt.pf ppf "storm peer=%d share=%d%%" peer share_pct
  | Readvertise { peer } -> Fmt.pf ppf "readvertise peer=%d" peer
  | Churn { sub_seed; events } -> Fmt.pf ppf "churn sub-seed=%Ld events=%d" sub_seed events
  | Peer_down p -> Fmt.pf ppf "peer-down %d" p
  | Peer_up p -> Fmt.pf ppf "peer-up %d" p

let pp ppf t =
  Fmt.pf ppf "ribscale schedule seed=%Ld peers=%d events=%d@." t.seed t.n_peers
    (length t);
  List.iteri (fun i ev -> Fmt.pf ppf "  %2d. %a@." (i + 1) pp_event ev) t.steps

(* --- generator --------------------------------------------------------- *)

(* [peer_ip] numbers peers 10.9.0.1 .. 10.9.255.200. *)
let max_peers = 256 * 200

let check_peers n =
  if n < 1 || n > max_peers then
    invalid_arg
      (Fmt.str "Ribscale: n_peers must be between 1 and %d (peer addresses \
                10.9.0.1-10.9.255.200), got %d" max_peers n)

let generate ~seed ?(n_peers = 12) ?(length = 10) () =
  check_peers n_peers;
  if length < 1 then invalid_arg "Ribscale.generate: length";
  let rng = Sim.Rng.create ~seed in
  (* Track cut peers so Peer_up tends to target peers that are actually
     down; the interpreter is total either way. *)
  let down = Array.make n_peers false in
  let any_down () =
    let d = ref [] in
    Array.iteri (fun i b -> if b then d := i :: !d) down;
    !d
  in
  let storm () =
    Storm { peer = Sim.Rng.int rng n_peers; share_pct = 10 + Sim.Rng.int rng 91 }
  in
  let steps =
    List.init length (fun _ ->
        let roll = Sim.Rng.int rng 100 in
        if roll < 30 then
          Churn
            {
              (* The sub-seed travels inside the event, so removing
                 neighbouring steps during shrinking never shifts a
                 surviving churn burst's draws. *)
              sub_seed = Int64.of_int (Sim.Rng.int rng 0x3FFF_FFFF);
              events = 64 + Sim.Rng.int rng 192;
            }
        else if roll < 50 then storm ()
        else if roll < 65 then Readvertise { peer = Sim.Rng.int rng n_peers }
        else if roll < 85 then begin
          let p = Sim.Rng.int rng n_peers in
          if down.(p) then begin
            down.(p) <- false;
            Peer_up p
          end
          else begin
            down.(p) <- true;
            Peer_down p
          end
        end
        else
          match any_down () with
          | [] -> Readvertise { peer = Sim.Rng.int rng n_peers }
          | d ->
            let p = List.nth d (Sim.Rng.int rng (List.length d)) in
            down.(p) <- false;
            Peer_up p)
  in
  (* Every drawn schedule must contain a withdrawal storm — they are the
     workload this harness exists for. *)
  let has_storm =
    List.exists (function Storm _ -> true | _ -> false) steps
  in
  let steps = if has_storm then steps else steps @ [storm ()] in
  { seed; n_peers; steps }

(* --- interpreter ------------------------------------------------------- *)

type state = {
  entries : Workloads.Rib_gen.entry array;
  n_peers : int;
  rib : Bgp.Rib.t;
  oracle : Oracle.t;
  down : bool array;
}

let peer_ip i = Net.Ipv4.of_octets 10 9 (i / 200) (1 + (i mod 200))
let peer_asn i = Bgp.Asn.of_int (64000 + (i mod 1500))

(* Peer-specific attributes for an entry: the peer prepends itself
   [1 + peer mod 3] times, so the same entry ranks differently across
   peers and the decision process has real work to do. The stored
   [as_path] tail is shared, not copied — at 10^6 entries × 100 views
   the copies would dominate the heap. *)
let attrs_of ~peer (e : Workloads.Rib_gen.entry) =
  let asn = peer_asn peer in
  let prepends = List.init (1 + (peer mod 3)) (fun _ -> asn) in
  Bgp.Attributes.make
    ~as_path:[Bgp.Attributes.Seq (prepends @ e.as_path)]
    ?med:e.med ~next_hop:(peer_ip peer) ()

let announce_both st ~peer (e : Workloads.Rib_gen.entry) =
  let attrs = attrs_of ~peer e in
  Oracle.announce st.oracle ~peer e.prefix attrs;
  (* Constructed exactly as the oracle constructs its side, so identical
     re-announcements hit the RIB's [Unchanged] suppression. *)
  let route = Bgp.Route.make ~peer_id:peer ~peer_router_id:(peer_ip peer) attrs in
  ignore (Bgp.Rib.announce st.rib e.prefix route)

let withdraw_both st ~peer (e : Workloads.Rib_gen.entry) =
  Oracle.withdraw st.oracle ~peer e.prefix;
  ignore (Bgp.Rib.withdraw st.rib e.prefix ~peer_id:peer)

(* Walk the peer's exported view in table order; [f] also gets the
   entry's rank within the view (used for storm slicing). *)
let iter_view st ~peer f =
  let share = Workloads.Rib_gen.view_share ~peers:st.n_peers peer in
  let rank = ref 0 in
  Array.iteri
    (fun i e ->
      if Workloads.Rib_gen.in_view ~peer ~share_pct:share i then begin
        f !rank e;
        incr rank
      end)
    st.entries

let apply st = function
  | Storm { peer; share_pct } ->
    (* A session-reset-shaped flush: a deterministic [share_pct] slice
       of the peer's view withdrawn in table order. Down peers are
       silent. *)
    if not st.down.(peer) then
      iter_view st ~peer (fun rank e ->
          if rank mod 100 < share_pct then withdraw_both st ~peer e)
  | Readvertise { peer } ->
    if not st.down.(peer) then iter_view st ~peer (fun _ e -> announce_both st ~peer e)
  | Churn { sub_seed; events } ->
    (* The update-train shape of Workloads.Churn: per-peer bursts with
       table locality, ~20 % withdrawals — applied to both sides at
       once. Draws are unconditional so the stream is independent of
       which peers happen to be down. *)
    let rng = Sim.Rng.create ~seed:sub_seed in
    let n = Array.length st.entries in
    let emitted = ref 0 in
    while !emitted < events do
      let peer = Sim.Rng.int rng st.n_peers in
      let base = Sim.Rng.int rng n in
      let burst = min (events - !emitted) (1 + Sim.Rng.int rng 32) in
      for j = 0 to burst - 1 do
        let e = st.entries.((base + j) mod n) in
        let withdrawal = Sim.Rng.int rng 100 < 20 in
        if not st.down.(peer) then
          if withdrawal then withdraw_both st ~peer e else announce_both st ~peer e
      done;
      emitted := !emitted + burst
    done
  | Peer_down peer ->
    st.down.(peer) <- true;
    (* The oracle masks; the RIB deletes through its per-peer index. *)
    Oracle.peer_down st.oracle peer;
    ignore (Bgp.Rib.withdraw_peer st.rib ~peer_id:peer)
  | Peer_up peer ->
    st.down.(peer) <- false;
    Oracle.peer_up st.oracle peer;
    (* The recovered session re-announces its ground truth — the
       oracle's stored (just unmasked) routes, churn included. *)
    List.iter
      (fun (prefix, attrs) ->
        let route =
          Bgp.Route.make ~peer_id:peer ~peer_router_id:(peer_ip peer) attrs
        in
        ignore (Bgp.Rib.announce st.rib prefix route))
      (Oracle.peer_routes st.oracle ~peer)

(* Full ranked equivalence: Decision.compare is a total order, so given
   equal candidate sets the ranked list is unique — the optimised RIB's
   stored order must equal a from-scratch naive ranking of the oracle's
   alive candidates, prefix by prefix, plus exact coverage agreement. *)
let equivalent st =
  let violations = ref [] and divergent = ref 0 in
  let add fmt = Fmt.kstr (fun s -> violations := s :: !violations) fmt in
  let rib_card = Bgp.Rib.cardinal st.rib in
  let oracle_card = Oracle.covered st.oracle in
  if rib_card <> oracle_card then
    add "coverage: rib stores %d prefixes, oracle covers %d" rib_card oracle_card;
  Oracle.iter_stored st.oracle (fun prefix _ ->
      let naive = Bgp.Decision.rank (Oracle.candidates st.oracle prefix) in
      let fast = Bgp.Rib.ordered st.rib prefix in
      if not (List.equal Bgp.Route.equal fast naive) then begin
        incr divergent;
        if !divergent <= 3 then
          add "ranking diverges at %a: rib peers [%a], oracle peers [%a]"
            Net.Prefix.pp prefix
            Fmt.(list ~sep:(any "; ") int)
            (List.map (fun (r : Bgp.Route.t) -> r.peer_id) fast)
            Fmt.(list ~sep:(any "; ") int)
            (List.map (fun (r : Bgp.Route.t) -> r.peer_id) naive)
      end);
  if !divergent > 3 then add "... and %d more divergent prefixes" (!divergent - 3);
  List.rev !violations

let[@lint.domain_entry
     "ribscale schedule runner: candidate for one-schedule-per-domain fan-out; \
      each run builds its own RIB, oracle and rng from the schedule seed"] execute
    ~entries (t : t) =
  if Array.length entries = 0 then invalid_arg "Ribscale.execute: entries";
  let st =
    {
      entries;
      n_peers = t.n_peers;
      rib = Bgp.Rib.create ();
      oracle = Oracle.create ();
      down = Array.make t.n_peers false;
    }
  in
  for i = 0 to t.n_peers - 1 do
    Oracle.declare_peer st.oracle ~id:i ~ip:(peer_ip i)
      ~mac:(Net.Mac.of_int64 (Int64.of_int (0xCC_0000_0000 + 1 + i)))
      ~port:(1 + i)
  done;
  (* Phase 0: every peer loads its full skewed view before the first
     scheduled event — the checker always starts from a converged
     multi-peer table, as a route collector would see it. *)
  for peer = 0 to t.n_peers - 1 do
    iter_view st ~peer (fun _ e -> announce_both st ~peer e)
  done;
  match equivalent st with
  | _ :: _ as vs -> List.map (fun v -> "after load: " ^ v) vs
  | [] ->
    (* Interpret until the first divergence: later steps of an already
       divergent run prove nothing and would only slow shrinking. *)
    let rec run i = function
      | [] -> []
      | ev :: rest -> (
        apply st ev;
        match equivalent st with
        | [] -> run (i + 1) rest
        | vs ->
          List.map (fun v -> Fmt.str "after step %d (%a): %s" i pp_event ev v) vs)
    in
    run 1 t.steps

(* --- matrix driver ----------------------------------------------------- *)

let run_matrix ?(n_peers = 12) ?(length = 10) ?(entries = 20_000) ?(progress = ignore)
    ~seed ~schedules () =
  if schedules < 1 then invalid_arg "Ribscale.run_matrix: schedules";
  check_peers n_peers;
  (* One table for the whole matrix: generation at internet shape is
     pure in the seed, so sharing it changes nothing but wall-clock. *)
  let n_entries = entries in
  let entries = Workloads.Rib_gen.generate_internet ~seed ~count:n_entries in
  Harness.run_matrix ~schedules ~progress ~execute:(execute ~entries)
    ~generate:(fun i -> generate ~seed:(Int64.add seed (Int64.of_int i)) ~n_peers ~length ())
    ~steps:(fun t -> t.steps)
    ~with_steps:(fun t steps -> { t with steps })
    ~reproduce:(fun i _ ->
      (* The table comes from the matrix seed, so the command replays
         the matrix up to this schedule rather than this one alone. *)
      Fmt.str "sc_lab ribscale-check --seed %Ld --schedules %d --peers %d \
               --entries %d --events %d"
        seed (i + 1) n_peers n_entries length)
