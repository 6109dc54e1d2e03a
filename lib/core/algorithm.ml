type emission =
  | Announce of Net.Prefix.t * Bgp.Attributes.t
  | Withdraw of Net.Prefix.t

let pp_emission ppf = function
  | Announce (p, attrs) -> Fmt.pf ppf "announce %a %a" Net.Prefix.pp p Bgp.Attributes.pp attrs
  | Withdraw p -> Fmt.pf ppf "withdraw %a" Net.Prefix.pp p

module Prefix_table = Hashtbl.Make (struct
  type t = Net.Prefix.t

  let equal = Net.Prefix.equal
  let hash = Net.Prefix.hash
end)

type t = {
  groups : Backup_group.t;
  last_sent : Bgp.Attributes.t Prefix_table.t;
  group_of : Backup_group.binding Prefix_table.t;
      (* the group each announced prefix currently references *)
  mutable emissions : int;
  mutable passthrough : bool;
      (* degraded mode: announce real next hops, no VNH rewrite *)
}

let create groups =
  {
    groups;
    last_sent = Prefix_table.create 16;
    group_of = Prefix_table.create 16;
    emissions = 0;
    passthrough = false;
  }

(* First [k] distinct next hops of the ranked candidates, stopping the
   walk as soon as [k] are collected: the backup-group key is the
   [group_size]-truncated tuple, so candidates past the k-th distinct
   next hop can never influence the announcement. This bounds the
   per-change scan at O(candidates × group_size) — with 100+ peers
   contributing candidates for a hot prefix, the old full dedup was
   quadratic in the candidate count. *)
let distinct_next_hops ~k routes =
  let rec dedup found seen = function
    | [] -> List.rev seen
    | _ when found >= k -> List.rev seen
    | r :: rest ->
      let nh = Bgp.Route.next_hop r in
      if List.exists (Net.Ipv4.equal nh) seen then dedup found seen rest
      else dedup (found + 1) (nh :: seen) rest
  in
  dedup 0 [] routes

(* What should be announced, and which backup-group (if any) the
   announcement references. *)
let desired t (after : Bgp.Route.t list) =
  match after with
  | [] -> (None, None)
  | best :: _ -> (
    match distinct_next_hops ~k:(Backup_group.group_size t.groups) after with
    | [] | [_] -> (Some best.attrs, None)
    | nhs ->
      let binding = Backup_group.find_or_create t.groups nhs in
      (* Passthrough (degraded) mode announces the best route's real
         next hop — the legacy O(#prefixes) FIB path — but keeps the
         group bookkeeping alive so recovery can re-announce every VNH
         without rebuilding state. *)
      if t.passthrough then (Some best.attrs, Some binding)
      else
        ( Some (Bgp.Attributes.with_next_hop best.attrs binding.Backup_group.vnh),
          Some binding ))

(* Move the prefix's reference to [binding]: acquire-before-release so a
   swap within the same group never dips the refcount to zero. *)
let update_group_ref t prefix binding =
  let old = Prefix_table.find_opt t.group_of prefix in
  match binding with
  | Some b -> (
    match old with
    | Some o when o == b -> ()
    | _ ->
      Backup_group.acquire t.groups b;
      (match old with Some o -> Backup_group.release t.groups o | None -> ());
      Prefix_table.replace t.group_of prefix b)
  | None -> (
    match old with
    | Some o ->
      Backup_group.release t.groups o;
      Prefix_table.remove t.group_of prefix
    | None -> ())

let process_change t (change : Bgp.Rib.change) =
  let prefix = change.prefix in
  let attrs, binding = desired t change.after in
  update_group_ref t prefix binding;
  match attrs with
  | None ->
    if Prefix_table.mem t.last_sent prefix then begin
      Prefix_table.remove t.last_sent prefix;
      t.emissions <- t.emissions + 1;
      Some (Withdraw prefix)
    end
    else None
  | Some attrs ->
    let unchanged =
      match Prefix_table.find_opt t.last_sent prefix with
      | Some previous -> Bgp.Attributes.equal previous attrs
      | None -> false
    in
    if unchanged then None
    else begin
      Prefix_table.replace t.last_sent prefix attrs;
      t.emissions <- t.emissions + 1;
      Some (Announce (prefix, attrs))
    end

let process_changes t changes = List.filter_map (process_change t) changes

let process_peer_down t rib ~peer_id =
  (* Listing 1's batch over a session loss: [withdraw_peer] walks the
     RIB's per-peer index, so the whole pass costs O(#prefixes routed
     via the peer), not O(table). *)
  process_changes t (Bgp.Rib.withdraw_peer rib ~peer_id)

let passthrough t = t.passthrough

let set_passthrough t rib on =
  if t.passthrough = on then []
  else begin
    t.passthrough <- on;
    (* Re-derive the announcement for every currently announced prefix
       from the RIB; only prefixes whose attributes actually change
       (VNH <-> real NH) emit, and the sort keeps the emission order —
       and so the packed UPDATE stream — deterministic. *)
    let prefixes =
      List.sort Net.Prefix.compare
        (Prefix_table.fold (fun p _ acc -> p :: acc) t.last_sent [])
    in
    List.filter_map
      (fun prefix ->
        let routes = Bgp.Rib.ordered rib prefix in
        process_change t { Bgp.Rib.prefix; before = routes; after = routes })
      prefixes
  end

let last_announced t prefix = Prefix_table.find_opt t.last_sent prefix

let iter_announced t f = Prefix_table.iter f t.last_sent

let group_of t prefix = Prefix_table.find_opt t.group_of prefix

let announced_count t = Prefix_table.length t.last_sent

let emissions_total t = t.emissions
