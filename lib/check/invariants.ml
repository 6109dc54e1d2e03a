module C = Supercharger.Controller
module BG = Supercharger.Backup_group
module Prov = Supercharger.Provisioner
module Algo = Supercharger.Algorithm

type subject = {
  controller : C.t;
  switch : Openflow.Switch.t;
  oracle : Oracle.t;
  probe_port : int;
  probe_mac : Net.Mac.t;
  probe_src : Net.Ipv4.t;
}

(* The switch entries that are backup-group (VMAC) rules: installed by
   the provisioner at its own priority, matching on dl_dst alone. *)
let vmac_rules s =
  List.filter_map
    (fun (e : Openflow.Flow_table.entry) ->
      if e.priority <> Prov.rule_priority then None
      else
        match e.ofmatch.Openflow.Ofmatch.dl_dst with
        | Some mac -> Some (mac, e)
        | None -> None)
    (Openflow.Flow_table.entries (Openflow.Switch.table s.switch))

(* --- invariants that hold at every instant ----------------------------- *)

(* Refcount consistency: the number of announced prefixes referencing
   each binding equals the binding's refcount, every referenced binding
   is registered, and the live-group gauge agrees. *)
let check_refcounts s =
  let violations = ref [] in
  let groups = C.groups s.controller in
  let algo = C.algorithm s.controller in
  let registered = BG.all groups in
  let count_of = Hashtbl.create 16 in
  Algo.iter_announced algo (fun prefix _attrs ->
      match Algo.group_of algo prefix with
      | None -> ()
      | Some b ->
        if not (List.memq b registered) then
          violations :=
            Fmt.str "prefix %a references unregistered group %a" Net.Prefix.pp prefix
              BG.pp_binding b
            :: !violations;
        let k = b.BG.vmac in
        Hashtbl.replace count_of k
          (1 + Option.value ~default:0 (Hashtbl.find_opt count_of k)));
  List.iter
    (fun (b : BG.binding) ->
      let counted = Option.value ~default:0 (Hashtbl.find_opt count_of b.vmac) in
      if counted <> BG.refs b then
        violations :=
          Fmt.str "group %a refcount %d but %d announced prefixes reference it"
            BG.pp_binding b (BG.refs b) counted
          :: !violations)
    registered;
  let live = List.length (List.filter (fun b -> BG.refs b > 0) registered) in
  if live <> BG.live_count groups then
    violations :=
      Fmt.str "live_count %d but %d registered groups have refs > 0"
        (BG.live_count groups) live
      :: !violations;
  !violations

(* Every VMAC rule in the table belongs to a registered group, or to a
   retired VMAC whose strict delete is still queued. *)
let check_rules_registered s =
  let groups = C.groups s.controller in
  let prov = C.provisioner s.controller in
  let retired = Prov.retired_vmacs prov in
  List.filter_map
    (fun (mac, _entry) ->
      match BG.find_by_vmac groups mac with
      | Some _ -> None
      | None ->
        if List.exists (Net.Mac.equal mac) retired then None
        else Some (Fmt.str "rule for unregistered, non-retired VMAC %a" Net.Mac.pp mac))
    (vmac_rules s)

(* Forward declaration dance: [transient] folds in the settled-rules
   check whenever the controller reports quiescence, so a rule left
   pointing at a dead peer (a skipped Listing 2 rewrite) is caught at the
   first post-failover instant, before the linger GC can erase the
   evidence. While barriers are pending the table legitimately lags the
   controller's intent and the check stays off. *)
let rules_synced s =
  C.quiescent s.controller && Openflow.Switch.idle s.switch

(* Rule correctness at rest: every registered group (referenced or still
   lingering) has exactly its rule, pointing at the first alive member —
   or dropping when no member is alive — and nothing else matches a
   VMAC: in particular every retired VMAC's delete has landed. *)
let check_rules_settled s =
  let violations = ref [] in
  let groups = C.groups s.controller in
  let prov = C.provisioner s.controller in
  let rules = vmac_rules s in
  List.iter
    (fun (b : BG.binding) ->
      match List.find_opt (fun (mac, _) -> Net.Mac.equal mac b.vmac) rules with
      | None ->
        violations :=
          Fmt.str "registered group %a has no switch rule" BG.pp_binding b
          :: !violations
      | Some (_, e) -> (
        match List.find_opt (Prov.is_alive prov) b.next_hops with
        | None ->
          if e.Openflow.Flow_table.actions <> [] then
            violations :=
              Fmt.str "group %a: all members dead but rule is not a drop rule"
                BG.pp_binding b
              :: !violations
        | Some alive -> (
          match Prov.peer prov alive, e.Openflow.Flow_table.actions with
          | Some info, [Openflow.Action.Set_dl_dst m; Openflow.Action.Output p]
            when Net.Mac.equal m info.Prov.pi_mac && p = info.Prov.pi_port ->
            ()
          | _, actions ->
            violations :=
              Fmt.str
                "group %a: rule does not point at first alive member %a (%d actions)"
                BG.pp_binding b Net.Ipv4.pp alive (List.length actions)
              :: !violations)))
    (BG.all groups);
  List.iter
    (fun (mac, _) ->
      if Option.is_none (BG.find_by_vmac groups mac) then
        violations :=
          Fmt.str "stale VMAC rule %a survives quiescence" Net.Mac.pp mac
          :: !violations)
    rules;
  !violations

let transient s =
  check_refcounts s @ check_rules_registered s
  @ (if rules_synced s then check_rules_settled s else [])

(* Differential forwarding equivalence against the flat-FIB oracle. *)
let check_forwarding s =
  let violations = ref [] in
  let algo = C.algorithm s.controller in
  let groups = C.groups s.controller in
  let prov = C.provisioner s.controller in
  let covered = Oracle.prefixes s.oracle in
  (* Oracle -> pipeline: every covered prefix forwards identically. *)
  List.iter
    (fun prefix ->
      match Oracle.lookup s.oracle prefix with
      | None -> ()
      | Some hop -> (
        match Algo.last_announced algo prefix with
        | None ->
          violations :=
            Fmt.str "prefix %a lost: oracle forwards to %a, nothing announced"
              Net.Prefix.pp prefix Oracle.pp_hop hop
            :: !violations
        | Some attrs -> (
          let nh = attrs.Bgp.Attributes.next_hop in
          (* ARP semantics: a VNH resolves to its group's VMAC, a real
             next hop to the declared peer's MAC. *)
          let dst_mac =
            match BG.find_by_vnh groups nh with
            | Some b -> Some b.BG.vmac
            | None -> (
              match Prov.peer prov nh with
              | Some info -> Some info.Prov.pi_mac
              | None -> None)
          in
          match dst_mac with
          | None ->
            violations :=
              Fmt.str "prefix %a announced with unresolvable next hop %a"
                Net.Prefix.pp prefix Net.Ipv4.pp nh
              :: !violations
          | Some dst ->
            let frame =
              Net.Ethernet.make ~src:s.probe_mac ~dst
                (Net.Ethernet.Ipv4
                   (Net.Ipv4_packet.make ~src:s.probe_src ~dst:(Net.Prefix.first prefix)
                      (Net.Ipv4_packet.Raw { protocol = 6; body = "" })))
            in
            let fail fmt =
              Fmt.kstr
                (fun msg ->
                  violations :=
                    Fmt.str "prefix %a (oracle: %a): %s" Net.Prefix.pp prefix
                      Oracle.pp_hop hop msg
                    :: !violations)
                fmt
            in
            (match Openflow.Switch.resolve s.switch ~port:s.probe_port frame with
            | Openflow.Switch.Forward (f', [ port ]) ->
              if not (Net.Mac.equal f'.Net.Ethernet.dst hop.Oracle.mac) then
                fail "pipeline rewrites to %a" Net.Mac.pp f'.Net.Ethernet.dst
              else if port <> hop.Oracle.port then
                fail "pipeline egresses port %d" port
            | Openflow.Switch.Forward (_, ports) ->
              fail "pipeline duplicates to %d ports" (List.length ports)
            | Openflow.Switch.Punt -> fail "pipeline punts to the controller"
            | Openflow.Switch.Miss -> fail "no rule matches (blackhole by miss)"
            | Openflow.Switch.Blackhole -> fail "drop rule blackholes the prefix"))))
    covered;
  (* Pipeline -> oracle: nothing announced beyond the oracle's coverage. *)
  Algo.iter_announced algo (fun prefix _ ->
      if Option.is_none (Oracle.lookup s.oracle prefix) then
        violations :=
          Fmt.str "prefix %a announced but the oracle has no alive route"
            Net.Prefix.pp prefix
          :: !violations);
  !violations

let at_quiescence s =
  check_refcounts s @ check_rules_registered s @ check_rules_settled s
  @ check_forwarding s
