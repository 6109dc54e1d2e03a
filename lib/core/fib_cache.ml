module Prefix_table = Hashtbl.Make (struct
  type t = Net.Prefix.t

  let equal = Net.Prefix.equal
  let hash = Net.Prefix.hash
end)

module Ip_table = Hashtbl.Make (struct
  type t = Net.Ipv4.t

  let equal = Net.Ipv4.equal
  let hash = Net.Ipv4.hash
end)

type t = {
  aggregate_len : int;
  send : Openflow.Message.t -> unit;
  vnh : Net.Ipv4.t;
  vmac : Net.Mac.t;
  peers : Provisioner.peer_info Ip_table.t;
  specifics : Net.Ipv4.t Net.Flat_fib.t; (* prefix -> next hop, mirrors the rules *)
  aggregate_refs : int Prefix_table.t; (* cover -> #specifics under it *)
  mutable rules : int;
}

let create ?(aggregate_len = 8) ~allocator ~send () =
  if aggregate_len < 0 || aggregate_len > 24 then
    invalid_arg "Fib_cache.create: aggregate_len out of range";
  let vnh, vmac = Vnh.fresh allocator in
  {
    aggregate_len;
    send;
    vnh;
    vmac;
    peers = Ip_table.create 8;
    specifics = Net.Flat_fib.create ();
    aggregate_refs = Prefix_table.create 64;
    rules = 0;
  }

let vnh t = t.vnh
let vmac t = t.vmac

let declare_peer t info = Ip_table.replace t.peers info.Provisioner.pi_ip info

(* The cover an address/prefix aggregates into: the prefix truncated to
   the aggregation length (prefixes already shorter than the cut are
   their own aggregate). *)
let cover t prefix =
  if Net.Prefix.length prefix <= t.aggregate_len then prefix
  else Net.Prefix.make (Net.Prefix.network prefix) t.aggregate_len

let rule_match t prefix =
  Openflow.Ofmatch.make ~dl_dst:t.vmac ~dl_type:0x0800 ~nw_dst:prefix ()

(* Per-length priorities, all above the convergence rules. *)
let rule_priority prefix = 1000 + Net.Prefix.length prefix

type emission =
  | Announce_aggregate of Net.Prefix.t
  | Withdraw_aggregate of Net.Prefix.t

let bump_aggregate t agg delta =
  let current = Option.value (Prefix_table.find_opt t.aggregate_refs agg) ~default:0 in
  let updated = current + delta in
  if updated < 0 then invalid_arg "Fib_cache: aggregate refcount underflow";
  if updated = 0 then Prefix_table.remove t.aggregate_refs agg
  else Prefix_table.replace t.aggregate_refs agg updated;
  if current = 0 && updated > 0 then [Announce_aggregate agg]
  else if current > 0 && updated = 0 then [Withdraw_aggregate agg]
  else []

let route t prefix target =
  match target with
  | Some nh -> (
    match Ip_table.find_opt t.peers nh with
    | None ->
      invalid_arg (Fmt.str "Fib_cache.route: peer %a not declared" Net.Ipv4.pp nh)
    | Some info ->
      let previous = Net.Flat_fib.find_exact t.specifics prefix in
      let unchanged =
        match previous with Some old -> Net.Ipv4.equal old nh | None -> false
      in
      if unchanged then [] (* re-advertising the same hop needs no flow-mod *)
      else begin
        let had = Option.is_some previous in
        Net.Flat_fib.insert t.specifics prefix nh;
        t.rules <- t.rules + 1;
        (* A re-route must modify the installed rule in place: a second
           Add at the identical (priority, match) would leave the switch
           free to keep serving the stale action. *)
        let command =
          if had then Openflow.Flow_table.Modify_strict
          else Openflow.Flow_table.Add
        in
        t.send
          (Openflow.Message.Flow_mod
             (Openflow.Flow_table.flow_mod ~priority:(rule_priority prefix)
                command (rule_match t prefix)
                [
                  Openflow.Action.Set_dl_dst info.Provisioner.pi_mac;
                  Openflow.Action.Output info.Provisioner.pi_port;
                ]));
        if had then [] else bump_aggregate t (cover t prefix) 1
      end)
  | None ->
    if Option.is_none (Net.Flat_fib.find_exact t.specifics prefix) then []
    else begin
      Net.Flat_fib.remove t.specifics prefix;
      t.rules <- t.rules + 1;
      t.send
        (Openflow.Message.Flow_mod
           (Openflow.Flow_table.flow_mod ~priority:(rule_priority prefix)
              Openflow.Flow_table.Delete_strict (rule_match t prefix) []));
      bump_aggregate t (cover t prefix) (-1)
    end

let resolve t addr = Net.Flat_fib.lookup_value t.specifics addr

let[@lint.zero_alloc] resolve_batch t addrs out =
  Net.Flat_fib.lookup_batch t.specifics addrs out

let specifics t = Net.Flat_fib.cardinal t.specifics
let aggregates t = Prefix_table.length t.aggregate_refs

let compression_factor t =
  let aggs = aggregates t in
  if aggs = 0 then 0.0 else float_of_int (specifics t) /. float_of_int aggs

let rules_sent t = t.rules
