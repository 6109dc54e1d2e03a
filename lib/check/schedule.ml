type event =
  | Announce of { peer : int; prefix : int; pref : int; prepend : int }
  | Withdraw of { peer : int; prefix : int }
  | Peer_down of int
  | Peer_up of int
  | Bfd_flap of int
  | Of_blackout of { span_ms : int }
  | Router_faults of { profile : string; span_ms : int }
  | Channel_dup of { peer : int; span_ms : int }

type step = {
  ev : event;
  dwell_ms : int;
}

type t = {
  seed : int64;
  n_peers : int;
  n_prefixes : int;
  steps : step list;
}

let length t = List.length t.steps

let pp_event ppf = function
  | Announce { peer; prefix; pref; prepend } ->
    Fmt.pf ppf "announce peer=%d prefix=%d pref=%d prepend=%d" peer prefix pref prepend
  | Withdraw { peer; prefix } -> Fmt.pf ppf "withdraw peer=%d prefix=%d" peer prefix
  | Peer_down p -> Fmt.pf ppf "peer-down %d" p
  | Peer_up p -> Fmt.pf ppf "peer-up %d" p
  | Bfd_flap p -> Fmt.pf ppf "bfd-flap %d" p
  | Of_blackout { span_ms } -> Fmt.pf ppf "of-blackout %dms" span_ms
  | Router_faults { profile; span_ms } ->
    Fmt.pf ppf "router-faults %s %dms" profile span_ms
  | Channel_dup { peer; span_ms } -> Fmt.pf ppf "channel-dup peer=%d %dms" peer span_ms

let pp ppf t =
  Fmt.pf ppf "schedule seed=%Ld peers=%d prefixes=%d events=%d@." t.seed t.n_peers
    t.n_prefixes (length t);
  List.iteri
    (fun i s -> Fmt.pf ppf "  %2d. %a (dwell %dms)@." (i + 1) pp_event s.ev s.dwell_ms)
    t.steps

let prefs = [| 100; 150; 200 |]
[@@lint.domain_local
  "constant local-pref palette, written nowhere; array literal only for cheap \
   indexed draws"]

let generate ~seed ?(n_peers = 3) ?(n_prefixes = 12) ?(length = 30) ?(chaos = true)
    () =
  if n_peers < 1 then invalid_arg "Schedule.generate: n_peers";
  if n_prefixes < 1 then invalid_arg "Schedule.generate: n_prefixes";
  let rng = Sim.Rng.create ~seed in
  (* The generator tracks which peers it has cut so Peer_up events tend
     to target peers that are actually down — the interpreter is total
     either way, this only makes drawn schedules denser in interesting
     transitions. *)
  let down = Array.make n_peers false in
  let any_down () =
    let d = ref [] in
    Array.iteri (fun i b -> if b then d := i :: !d) down;
    !d
  in
  let announce () =
    Announce
      {
        peer = Sim.Rng.int rng n_peers;
        prefix = Sim.Rng.int rng n_prefixes;
        pref = Sim.Rng.pick rng prefs;
        prepend = Sim.Rng.int rng 3;
      }
  in
  let steps =
    List.init length (fun _ ->
        let roll = Sim.Rng.int rng 100 in
        let ev =
          if roll < 42 then announce ()
          else if roll < 56 then
            Withdraw
              { peer = Sim.Rng.int rng n_peers; prefix = Sim.Rng.int rng n_prefixes }
          else if roll < 66 then begin
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
          else if roll < 74 then (
            match any_down () with
            | [] -> Bfd_flap (Sim.Rng.int rng n_peers)
            | d ->
              let p = List.nth d (Sim.Rng.int rng (List.length d)) in
              down.(p) <- false;
              Peer_up p)
          else if roll < 82 then Bfd_flap (Sim.Rng.int rng n_peers)
          else if chaos && roll < 88 then
            Of_blackout { span_ms = 150 + Sim.Rng.int rng 600 }
          else if chaos && roll < 95 then
            Router_faults
              {
                profile = (if Sim.Rng.bool rng then "lossy" else "chaos");
                span_ms = 200 + Sim.Rng.int rng 800;
              }
          else if chaos then
            Channel_dup
              { peer = Sim.Rng.int rng n_peers; span_ms = 200 + Sim.Rng.int rng 600 }
          else announce ()
        in
        { ev; dwell_ms = Sim.Rng.int rng 150 })
  in
  { seed; n_peers; n_prefixes; steps }
