type peer_info = {
  pi_ip : Net.Ipv4.t;
  pi_mac : Net.Mac.t;
  pi_port : int;
}

module Ip_table = Hashtbl.Make (struct
  type t = Net.Ipv4.t

  let equal = Net.Ipv4.equal
  let hash = Net.Ipv4.hash
end)

module Mac_table = Hashtbl.Make (struct
  type t = Net.Mac.t

  let equal = Net.Mac.equal
  let hash = Net.Mac.hash
end)

type t = {
  send : Openflow.Message.t -> unit;
  peers : peer_info Ip_table.t;
  dead : unit Ip_table.t;
  selected_by_vmac : Net.Ipv4.t Mac_table.t;
  retired : unit Mac_table.t;
      (* vmacs whose uninstall has been issued but that no later install
         has reclaimed — resync re-deletes these in case the delete was
         lost on an unresponsive control channel *)
  mutable flow_mods : int;
  m_flow_mods : Obs.Metrics.counter;
}

let rule_priority = 100

let create ?(metrics = Obs.Metrics.default) ~send () =
  {
    send;
    peers = Ip_table.create 16;
    dead = Ip_table.create 4;
    selected_by_vmac = Mac_table.create 64;
    retired = Mac_table.create 16;
    flow_mods = 0;
    m_flow_mods = Obs.Metrics.counter metrics "provisioner.flow_mods";
  }

let declare_peer t info = Ip_table.replace t.peers info.pi_ip info

let peer t ip = Ip_table.find_opt t.peers ip

let is_alive t ip = Ip_table.mem t.peers ip && not (Ip_table.mem t.dead ip)

let first_alive t next_hops = List.find_opt (is_alive t) next_hops

let send_group_rule t (binding : Backup_group.binding) target =
  let actions =
    match target with
    | Some info ->
      [Openflow.Action.Set_dl_dst info.pi_mac; Openflow.Action.Output info.pi_port]
    | None -> [] (* no member alive: drop *)
  in
  let fm =
    Openflow.Flow_table.flow_mod ~priority:rule_priority Openflow.Flow_table.Add
      (Openflow.Ofmatch.dl_dst binding.Backup_group.vmac)
      actions
  in
  t.flow_mods <- t.flow_mods + 1;
  Obs.Metrics.incr t.m_flow_mods;
  t.send (Openflow.Message.Flow_mod fm)

let install_group t (binding : Backup_group.binding) =
  List.iter
    (fun ip ->
      if not (Ip_table.mem t.peers ip) then
        invalid_arg
          (Fmt.str "Provisioner.install_group: peer %a not declared" Net.Ipv4.pp ip))
    binding.next_hops;
  (* A recycled vmac that gets re-installed is no longer retired; the
     Add overwrites whatever rule the (possibly lost) delete targeted. *)
  Mac_table.remove t.retired binding.vmac;
  match first_alive t binding.next_hops with
  | Some ip -> (
    match peer t ip with
    | Some info ->
      Mac_table.replace t.selected_by_vmac binding.vmac ip;
      send_group_rule t binding (Some info)
    | None ->
      invalid_arg
        (Fmt.str "Provisioner.install_group: peer %a not declared" Net.Ipv4.pp ip))
  | None ->
    Mac_table.remove t.selected_by_vmac binding.vmac;
    send_group_rule t binding None

let send_vmac_delete t vmac =
  let fm =
    Openflow.Flow_table.flow_mod ~priority:rule_priority
      Openflow.Flow_table.Delete_strict
      (Openflow.Ofmatch.dl_dst vmac)
      []
  in
  t.flow_mods <- t.flow_mods + 1;
  Obs.Metrics.incr t.m_flow_mods;
  t.send (Openflow.Message.Flow_mod fm)

let uninstall_group t (binding : Backup_group.binding) =
  Mac_table.remove t.selected_by_vmac binding.vmac;
  Mac_table.replace t.retired binding.vmac ();
  send_vmac_delete t binding.Backup_group.vmac

let retired_vmacs t = Mac_table.fold (fun mac () acc -> mac :: acc) t.retired []

let selected t (binding : Backup_group.binding) =
  Mac_table.find_opt t.selected_by_vmac binding.vmac

let fail_peer t failed_ip groups =
  Ip_table.replace t.dead failed_ip ();
  let before = t.flow_mods in
  List.iter
    (fun (binding : Backup_group.binding) ->
      let points_at_failed =
        match selected t binding with
        | Some ip -> Net.Ipv4.equal ip failed_ip
        | None -> false
      in
      if points_at_failed then install_group t binding)
    groups;
  t.flow_mods - before

let reinstall_groups t groups =
  let before = t.flow_mods in
  List.iter (fun binding -> install_group t binding) groups;
  t.flow_mods - before

let resync t groups =
  let before = t.flow_mods in
  (* Deletes first: a retired vmac may since have been recycled into one
     of [groups], and its re-install must win over the re-delete. *)
  let retired = Mac_table.fold (fun mac () acc -> mac :: acc) t.retired [] in
  List.iter (fun vmac -> send_vmac_delete t vmac) retired;
  List.iter (fun binding -> install_group t binding) groups;
  t.flow_mods - before

let revive_peer t ip = Ip_table.remove t.dead ip

let flow_mods_sent t = t.flow_mods
