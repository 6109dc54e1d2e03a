type event =
  | Extern_fail of int
  | Extern_recover of int
  | Link_down of int
  | Link_up of int
  | Srlg_fail of int
  | Srlg_recover of int
  | Partition of { routers : int list; span_ms : int }

type step = {
  ev : event;
  dwell_ms : int;
}

type t = {
  seed : int64;
  routers : int;
  supercharged : int list;
  n_prefixes : int;
  steps : step list;
}

let length t = List.length t.steps

let pp_event ppf = function
  | Extern_fail k -> Fmt.pf ppf "extern-fail %d" k
  | Extern_recover k -> Fmt.pf ppf "extern-recover %d" k
  | Link_down l -> Fmt.pf ppf "link-down %d" l
  | Link_up l -> Fmt.pf ppf "link-up %d" l
  | Srlg_fail g -> Fmt.pf ppf "srlg-fail %d" g
  | Srlg_recover g -> Fmt.pf ppf "srlg-recover %d" g
  | Partition { routers; span_ms } ->
    Fmt.pf ppf "partition [%a] %dms" Fmt.(list ~sep:comma int) routers span_ms

let pp ppf t =
  Fmt.pf ppf "topo-schedule seed=%Ld routers=%d supercharged=[%a] prefixes=%d events=%d@."
    t.seed t.routers
    Fmt.(list ~sep:comma int)
    t.supercharged t.n_prefixes (length t);
  List.iteri
    (fun i s -> Fmt.pf ppf "  %2d. %a (dwell %dms)@." (i + 1) pp_event s.ev s.dwell_ms)
    t.steps

(* The ring-with-chords topology every schedule runs on: externs at
   router 0 (best LOCAL_PREF), the antipode, and a quarter-way router,
   so remote-failure machinery is always in play. *)
let spec_of t =
  let n = t.routers in
  Topo.Spec.ring ~routers:n
    ~externs:[ (0, 200); (n / 2, 150); (n / 4, 100) ]
    ~supercharged:t.supercharged ()

let generate ~seed ?(routers = 8) ?(n_prefixes = 6) ?(length = 14) () =
  if routers < 6 then invalid_arg "Topo_run.generate: need >= 6 routers";
  let rng = Sim.Rng.create ~seed in
  (* Supercharge a seed-drawn subset that always includes the best
     egress's host, so the fast-failover path is always exercised. *)
  let supercharged =
    List.filter (fun i -> i = 0 || Sim.Rng.bool rng) (List.init routers (fun i -> i))
  in
  let probe = { seed; routers; supercharged; n_prefixes; steps = [] } in
  let spec = spec_of probe in
  let n_links = Array.length spec.Topo.Spec.links in
  let n_externs = Topo.Spec.n_externs spec in
  (* Track what the generator has cut so recoveries tend to target
     things that are actually down; the interpreter is total either
     way (all fault calls are idempotent). *)
  let ext_down = Array.make n_externs false in
  let link_down = Array.make n_links false in
  let pick_down flags recover fail =
    let down = ref [] in
    Array.iteri (fun i b -> if b then down := i :: !down) flags;
    match !down with
    | [] ->
      let i = Sim.Rng.int rng (Array.length flags) in
      flags.(i) <- true;
      fail i
    | l ->
      let i = List.nth l (Sim.Rng.int rng (List.length l)) in
      if Sim.Rng.bool rng then begin
        flags.(i) <- false;
        recover i
      end
      else begin
        let j = Sim.Rng.int rng (Array.length flags) in
        flags.(j) <- true;
        fail j
      end
  in
  let steps =
    List.init length (fun _ ->
        let roll = Sim.Rng.int rng 100 in
        let ev =
          if roll < 35 then
            pick_down ext_down (fun k -> Extern_recover k) (fun k -> Extern_fail k)
          else if roll < 65 then
            pick_down link_down (fun l -> Link_up l) (fun l -> Link_down l)
          else if roll < 80 then
            if Sim.Rng.bool rng then begin
              (* Correlated failure: both conduit links at router 0. *)
              List.iter
                (fun l -> link_down.(l) <- true)
                (Topo.Spec.srlg_members spec 0);
              Srlg_fail 0
            end
            else begin
              List.iter
                (fun l -> link_down.(l) <- false)
                (Topo.Spec.srlg_members spec 0);
              Srlg_recover 0
            end
          else begin
            let a = Sim.Rng.int rng routers in
            let extra =
              if Sim.Rng.bool rng then [ Sim.Rng.int rng routers ] else []
            in
            Partition
              {
                routers = List.sort_uniq Int.compare (a :: extra);
                span_ms = 40 + Sim.Rng.int rng 120;
              }
          end
        in
        { ev; dwell_ms = 15 + Sim.Rng.int rng 90 })
  in
  { probe with steps }

(* --- execution ------------------------------------------------------------ *)

let prefix_of i = Net.Prefix.make (Net.Ipv4.of_octets 203 0 i 0) 24

let apply fabric step =
  let engine = Topo.Fabric.engine fabric in
  let now = Sim.Engine.now engine in
  let horizon = ref now in
  (match step.ev with
  | Extern_fail k -> Topo.Fabric.fail_extern fabric ~extern:k
  | Extern_recover k -> Topo.Fabric.recover_extern fabric ~extern:k
  | Link_down l -> Topo.Fabric.fail_link fabric ~link:l
  | Link_up l -> Topo.Fabric.recover_link fabric ~link:l
  | Srlg_fail g -> Topo.Fabric.fail_srlg fabric ~srlg:g
  | Srlg_recover g -> Topo.Fabric.recover_srlg fabric ~srlg:g
  | Partition { routers; span_ms } ->
    let until = Sim.Time.add now (Sim.Time.of_ms span_ms) in
    Topo.Fabric.partition fabric ~routers ~from:now ~until;
    horizon := until);
  Sim.Engine.run ~until:(Sim.Time.add now (Sim.Time.of_ms step.dwell_ms)) engine;
  !horizon

(* Invariants at quiescence, all phrased against the oracle's
   ground-truth prediction. *)
let check fabric t =
  let violations = ref [] in
  let fail fmt = Fmt.kstr (fun s -> violations := s :: !violations) fmt in
  let view = Topo_oracle.of_fabric fabric in
  let dist = Topo_oracle.distances view in
  let n = t.routers in
  let prefixes = List.init t.n_prefixes prefix_of in
  List.iter
    (fun prefix ->
      for r = 0 to n - 1 do
        let expected = Topo_oracle.expected_choice view dist ~router:r prefix in
        let actual = Topo.Router.choice (Topo.Fabric.router fabric r) prefix in
        let same =
          match (expected, actual) with
          | None, None -> true
          | Some a, Some b -> a = b
          | None, Some _ | Some _, None -> false
        in
        if not same then
          fail "router %d, %a: forwards to %a, oracle says %a" r Net.Prefix.pp prefix
            Fmt.(option ~none:(any "nothing") int)
            actual
            Fmt.(option ~none:(any "nothing") int)
            expected;
        match (expected, Topo.Fabric.outcome fabric ~ingress:r prefix) with
        | Some _, Topo.Fabric.Delivered e
          when Topo.Fabric.extern_alive fabric e
               && List.exists
                    (fun (p, _) -> Net.Prefix.equal p prefix)
                    (Topo.Fabric.announced fabric e) -> ()
        | Some _, outcome ->
          fail "ingress %d, %a: expected delivery, walk ends in %a" r Net.Prefix.pp
            prefix Topo.Fabric.pp_outcome outcome
        | None, (Topo.Fabric.Unrouted | Topo.Fabric.Blackhole) -> ()
        | None, outcome ->
          fail "ingress %d, %a: oracle says unroutable, walk ends in %a" r
            Net.Prefix.pp prefix Topo.Fabric.pp_outcome outcome
      done)
    prefixes;
  (* Database equality needs a connected fabric: flooding cannot cross
     a cut, so partitioned components legitimately hold stale views of
     each other. The controller hears every router out of band. *)
  if Topo_oracle.connected dist then begin
    let lsdb = Topo.Control.lsdb (Topo.Fabric.control fabric) in
    for r = 0 to n - 1 do
      if
        not
          (Igp.Database.equal
             (Igp.Node.database (Topo.Router.igp (Topo.Fabric.router fabric r)))
             lsdb)
      then fail "router %d: link-state database differs from the controller's" r
    done
  end;
  List.rev !violations

let[@lint.domain_entry
     "multi-node checker runner: one fabric per schedule, built fresh from \
      the seed, so whole runs can move onto worker domains"] execute t =
  let engine = Sim.Engine.create ~seed:t.seed () in
  let spec = spec_of t in
  let fabric = Topo.Fabric.build engine spec in
  Topo.Fabric.start fabric;
  let prefixes = List.init t.n_prefixes prefix_of in
  for k = 0 to Topo.Spec.n_externs spec - 1 do
    Topo.Fabric.announce_extern fabric ~extern:k prefixes
  done;
  if not (Topo.Fabric.settle fabric ()) then
    [ "no initial quiescence: the fabric never settled after bring-up" ]
  else begin
    let horizon =
      List.fold_left
        (fun acc step -> Sim.Time.max acc (apply fabric step))
        Sim.Time.zero t.steps
    in
    (* Outlast any partition window still open, plus its heal resync. *)
    Topo.Fabric.run_until fabric (Sim.Time.add horizon (Sim.Time.of_ms 2));
    if not (Topo.Fabric.settle fabric ~budget:(Sim.Time.of_sec 120.) ()) then
      [ "no quiescence: the fabric never settled after the schedule" ]
    else check fabric t
  end

type failure = {
  schedule : t;
  shrunk : t;
  violations : string list;
  reproduce : string;
}

let pp_failure ppf f =
  Fmt.pf ppf "failing schedule:@.%a@.shrunk to:@.%a@.violations:@." pp f.schedule pp
    f.shrunk;
  List.iter (fun v -> Fmt.pf ppf "  - %s@." v) f.violations;
  Fmt.pf ppf "reproduce: %s@." f.reproduce

let run_matrix ?routers ?n_prefixes ?events ?progress ~seeds () =
  let rec loop i = function
    | [] -> None
    | seed :: rest ->
      (match progress with Some f -> f i | None -> ());
      let schedule = generate ~seed ?routers ?n_prefixes ?length:events () in
      let violations = execute schedule in
      if violations = [] then loop (i + 1) rest
      else
        let steps =
          Shrink.list schedule.steps ~fails:(fun steps ->
              execute { schedule with steps } <> [])
        in
        let shrunk = { schedule with steps } in
        let reproduce =
          Fmt.str "sc_lab topo-check --seeds %Ld --routers %d --prefixes %d --events %d"
            seed schedule.routers schedule.n_prefixes (length schedule)
        in
        Some { schedule; shrunk; violations = execute shrunk; reproduce }
  in
  loop 0 seeds
