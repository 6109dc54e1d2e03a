module Ip_table = Hashtbl.Make (struct
  type t = Net.Ipv4.t

  let equal = Net.Ipv4.equal
  let hash = Net.Ipv4.hash
end)

type flow_key = {
  fk_src : Net.Ipv4.t;
  fk_dst : Net.Ipv4.t;
  fk_src_port : int;
  fk_dst_port : int;
}

type t = {
  send : Openflow.Message.t -> unit;
  vnh : Net.Ipv4.t;
  vmac : Net.Mac.t;
  mutable targets : Provisioner.peer_info list; (* registration order *)
  loads : int Ip_table.t;
  assignments : (flow_key, Net.Ipv4.t) Hashtbl.t;
  mutable rules : int;
}

(* Per-flow rules sit above the backup-group rules, the tag's default
   rule one below them. *)
let rule_priority = 300

let create ~allocator ~send =
  let vnh, vmac = Vnh.fresh allocator in
  {
    send;
    vnh;
    vmac;
    targets = [];
    loads = Ip_table.create 8;
    assignments = Hashtbl.create 256;
    rules = 0;
  }

let vnh t = t.vnh
let vmac t = t.vmac

let send_rule t fm =
  t.rules <- t.rules + 1;
  t.send (Openflow.Message.Flow_mod fm)

let add_target t info =
  t.targets <- t.targets @ [info];
  Ip_table.replace t.loads info.Provisioner.pi_ip 0;
  (* Default rule: tagged traffic without a pinned flow goes to the
     first target (priority just below the per-flow rules). *)
  match t.targets with
  | first :: _ ->
    send_rule t
      (Openflow.Flow_table.flow_mod ~priority:(rule_priority - 1)
         Openflow.Flow_table.Add
         (Openflow.Ofmatch.dl_dst t.vmac)
         [
           Openflow.Action.Set_dl_dst first.Provisioner.pi_mac;
           Openflow.Action.Output first.Provisioner.pi_port;
         ])
  | [] -> ()

let flow_key_of_packet (p : Net.Ipv4_packet.t) =
  match p.payload with
  | Net.Ipv4_packet.Udp u ->
    Some
      {
        fk_src = p.src;
        fk_dst = p.dst;
        fk_src_port = u.Net.Udp.src_port;
        fk_dst_port = u.Net.Udp.dst_port;
      }
  | Net.Ipv4_packet.Raw _ -> None

let load t ip = Option.value (Ip_table.find_opt t.loads ip) ~default:0

let least_loaded t =
  match t.targets with
  | [] -> invalid_arg "Load_balancer.assign: no targets"
  | first :: rest ->
    List.fold_left
      (fun best candidate ->
        if load t candidate.Provisioner.pi_ip < load t best.Provisioner.pi_ip then
          candidate
        else best)
      first rest

let assignment t key = Hashtbl.find_opt t.assignments key

let flow_match t key =
  Openflow.Ofmatch.make ~dl_dst:t.vmac
    ~nw_src:(Net.Prefix.make key.fk_src 32)
    ~nw_dst:(Net.Prefix.make key.fk_dst 32)
    ~nw_proto:17 ~tp_src:key.fk_src_port ~tp_dst:key.fk_dst_port ()

let pin t key (target : Provisioner.peer_info) =
  let ip = target.Provisioner.pi_ip in
  Hashtbl.replace t.assignments key ip;
  Ip_table.replace t.loads ip (load t ip + 1);
  send_rule t
    (Openflow.Flow_table.flow_mod ~priority:rule_priority Openflow.Flow_table.Add
       (flow_match t key)
       [
         Openflow.Action.Set_dl_dst target.Provisioner.pi_mac;
         Openflow.Action.Output target.Provisioner.pi_port;
       ]);
  ip

let assign t key =
  match assignment t key with
  | Some ip -> ip
  | None -> pin t key (least_loaded t)

let remove_target t ip =
  if List.exists (fun p -> Net.Ipv4.equal p.Provisioner.pi_ip ip) t.targets then begin
    t.targets <-
      List.filter (fun p -> not (Net.Ipv4.equal p.Provisioner.pi_ip ip)) t.targets;
    Ip_table.remove t.loads ip;
    let orphaned =
      Hashtbl.fold
        (fun key tgt acc -> if Net.Ipv4.equal tgt ip then key :: acc else acc)
        t.assignments []
    in
    (* Deterministic reassignment order regardless of hash iteration. *)
    let compare_flow_key a b =
      let c = Net.Ipv4.compare a.fk_src b.fk_src in
      if c <> 0 then c
      else
        let c = Net.Ipv4.compare a.fk_dst b.fk_dst in
        if c <> 0 then c
        else
          let c = Int.compare a.fk_src_port b.fk_src_port in
          if c <> 0 then c else Int.compare a.fk_dst_port b.fk_dst_port
    in
    let orphaned = List.sort compare_flow_key orphaned in
    match t.targets with
    | [] ->
      (* Nothing left to balance over: drop every pinned rule and the
         default rule rather than keep forwarding into a dead port. *)
      List.iter
        (fun key ->
          Hashtbl.remove t.assignments key;
          send_rule t
            (Openflow.Flow_table.flow_mod ~priority:rule_priority
               Openflow.Flow_table.Delete_strict (flow_match t key) []))
        orphaned;
      send_rule t
        (Openflow.Flow_table.flow_mod ~priority:(rule_priority - 1)
           Openflow.Flow_table.Delete_strict
           (Openflow.Ofmatch.dl_dst t.vmac)
           [])
    | first :: _ ->
      (* Re-point the default rule away from the lost peer, then rebalance
         each orphaned flow least-loaded-first (the Add overwrites the
         flow's old rule in place — same match, same priority). *)
      send_rule t
        (Openflow.Flow_table.flow_mod ~priority:(rule_priority - 1)
           Openflow.Flow_table.Add
           (Openflow.Ofmatch.dl_dst t.vmac)
           [
             Openflow.Action.Set_dl_dst first.Provisioner.pi_mac;
             Openflow.Action.Output first.Provisioner.pi_port;
           ]);
      List.iter (fun key -> ignore (pin t key (least_loaded t))) orphaned
  end

let imbalance t =
  let loads = List.map (fun p -> load t p.Provisioner.pi_ip) t.targets in
  match loads with
  | [] -> 0.0
  | _ ->
    let total = List.fold_left ( + ) 0 loads in
    if total = 0 then 1.0
    else
      let mean = float_of_int total /. float_of_int (List.length loads) in
      float_of_int (List.fold_left max 0 loads) /. mean

(* RFC 2992-style modulo hashing over a few header bits — deliberately
   the weak spot the paper points at: skewed traffic (e.g. destinations
   sharing alignment) collapses onto few buckets. *)
let static_hash ~n_targets key =
  if n_targets <= 0 then invalid_arg "Load_balancer.static_hash";
  let low = Net.Ipv4.to_int key.fk_dst land 0xFF in
  low mod n_targets

let rules_sent t = t.rules
