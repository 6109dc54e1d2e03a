type entry = {
  priority : int;
  ofmatch : Ofmatch.t;
  actions : Action.t list;
  cookie : int64;
  mutable packets : int;
}

type command =
  | Add
  | Modify
  | Modify_strict
  | Delete
  | Delete_strict

type flow_mod = {
  command : command;
  fm_priority : int;
  fm_match : Ofmatch.t;
  fm_actions : Action.t list;
  fm_cookie : int64;
}

let flow_mod ?(cookie = 0L) ?(priority = 100) command ofmatch actions =
  { command; fm_priority = priority; fm_match = ofmatch; fm_actions = actions; fm_cookie = cookie }

(* Entries live in per-priority buckets (insertion-ordered growable
   arrays with tombstones) so that installing the hundreds of thousands
   of rules a FIB-cache deployment needs stays O(1) per flow-mod; a hash
   index over (priority, match) serves the strict commands. Lookup scans
   priorities in descending order, entries within a priority in install
   order — the OpenFlow tie-break. *)

type slot = {
  entry : entry;
  some_entry : entry option;
      (* the shared-Some-cell idiom (see Net.Flat_fib): the [Some] is
         allocated once at install time, so hot-path lookups return this
         stored cell instead of wrapping [entry] per packet *)
  mutable live : bool;
}

type bucket = {
  mutable slots : slot array;
  mutable len : int;
  mutable dead : int;
}

module Strict_key = struct
  type t = int * Ofmatch.t

  let equal (pa, ma) (pb, mb) = pa = pb && Ofmatch.equal ma mb
  let hash (p, m) = ((p * 31) + Ofmatch.hash m) land max_int
end

module Strict_index = Hashtbl.Make (Strict_key)

type t = {
  buckets : (int, bucket) Hashtbl.t;
  mutable priorities : int list; (* descending, live priorities *)
  index : slot Strict_index.t;
  mutable size : int;
  mutable lookups : int;
}

let create () =
  {
    buckets = Hashtbl.create 16;
    priorities = [];
    index = Strict_index.create 64;
    size = 0;
    lookups = 0;
  }

let rec insert_priority p = function
  | [] -> [p]
  | q :: rest as l -> if p > q then p :: l else if p = q then l else q :: insert_priority p rest

let bucket_for t priority =
  match Hashtbl.find_opt t.buckets priority with
  | Some b -> b
  | None ->
    let b = { slots = [||]; len = 0; dead = 0 } in
    Hashtbl.replace t.buckets priority b;
    t.priorities <- insert_priority priority t.priorities;
    b

let bucket_push b slot =
  if b.len >= Array.length b.slots then begin
    let grown = Array.make (max 8 (2 * Array.length b.slots)) slot in
    Array.blit b.slots 0 grown 0 b.len;
    b.slots <- grown
  end;
  b.slots.(b.len) <- slot;
  b.len <- b.len + 1

let compact b =
  if b.dead > b.len / 2 then begin
    let live = Array.of_list (List.filter (fun s -> s.live) (Array.to_list (Array.sub b.slots 0 b.len))) in
    b.slots <- live;
    b.len <- Array.length live;
    b.dead <- 0
  end

let kill t b slot =
  if slot.live then begin
    slot.live <- false;
    b.dead <- b.dead + 1;
    t.size <- t.size - 1;
    Strict_index.remove t.index (slot.entry.priority, slot.entry.ofmatch);
    compact b
  end

let iter_buckets t f =
  List.iter
    (fun priority ->
      match Hashtbl.find_opt t.buckets priority with
      | Some b ->
        for i = 0 to b.len - 1 do
          let slot = b.slots.(i) in
          if slot.live then f b slot
        done
      | None -> ())
    t.priorities

let add t fm =
  let key = (fm.fm_priority, fm.fm_match) in
  (match Strict_index.find_opt t.index key with
  | Some old ->
    (match Hashtbl.find_opt t.buckets fm.fm_priority with
    | Some b -> kill t b old
    | None -> ())
  | None -> ());
  let entry =
    {
      priority = fm.fm_priority;
      ofmatch = fm.fm_match;
      actions = fm.fm_actions;
      cookie = fm.fm_cookie;
      packets = 0;
    }
  in
  let slot = { entry; some_entry = Some entry; live = true } in
  bucket_push (bucket_for t fm.fm_priority) slot;
  Strict_index.replace t.index key slot;
  t.size <- t.size + 1

let rec apply t fm =
  match fm.command with
  | Add -> add t fm
  | Modify | Modify_strict ->
    let matched = ref false in
    let update slot =
      matched := true;
      (* Entries are immutable apart from counters; replace in place by
         re-adding under the entry's own priority. *)
      add t
        {
          fm with
          command = Add;
          fm_priority = slot.entry.priority;
          fm_match = slot.entry.ofmatch;
        }
    in
    (match fm.command with
    | Modify_strict -> (
      match Strict_index.find_opt t.index (fm.fm_priority, fm.fm_match) with
      | Some slot -> update slot
      | None -> ())
    | Modify | Add | Delete | Delete_strict ->
      (* OF 1.0 non-strict semantics: the command applies to every entry
         the given match subsumes. *)
      let hits = ref [] in
      iter_buckets t (fun _ slot ->
          if Ofmatch.subsumes fm.fm_match slot.entry.ofmatch then hits := slot :: !hits);
      List.iter update !hits);
    if not !matched then apply t { fm with command = Add }
  | Delete ->
    if Ofmatch.is_any fm.fm_match then begin
      Hashtbl.reset t.buckets;
      t.priorities <- [];
      Strict_index.reset t.index;
      t.size <- 0
    end
    else begin
      let hits = ref [] in
      iter_buckets t (fun b slot ->
          if Ofmatch.subsumes fm.fm_match slot.entry.ofmatch then hits := (b, slot) :: !hits);
      List.iter (fun (b, slot) -> kill t b slot) !hits
    end
  | Delete_strict -> (
    match Strict_index.find_opt t.index (fm.fm_priority, fm.fm_match) with
    | Some slot -> (
      match Hashtbl.find_opt t.buckets fm.fm_priority with
      | Some b -> kill t b slot
      | None -> ())
    | None -> ())

exception Found of entry

let peek t ctx =
  match
    iter_buckets t (fun _ slot ->
        if Ofmatch.matches slot.entry.ofmatch ctx then raise_notrace (Found slot.entry))
  with
  | () -> None
  | exception Found e -> Some e

let lookup t ctx =
  t.lookups <- t.lookups + 1;
  match peek t ctx with
  | None -> None
  | Some e ->
    e.packets <- e.packets + 1;
    Some e

(* Batched lookup: resolving the priority list and its hashtable
   probes once per burst instead of once per packet. The snapshot is an
   array of live buckets in descending-priority order (the one
   amortized per-burst allocation); each packet then scans plain
   arrays. *)
type snapshot = bucket array

let snapshot t =
  Array.of_list
    (List.filter_map (fun p -> Hashtbl.find_opt t.buckets p) t.priorities)

(* Top-level recursion rather than a nested [go] closure: the scan runs
   once per packet and must not capture. Bounds: [bi] is checked
   against the snapshot length and [si] against the bucket's live
   length before every unsafe read. *)
let[@lint.zero_alloc] rec scan_from snapshot ctx bi si =
  if bi >= Array.length snapshot then None
  else begin
    let b = Array.unsafe_get snapshot bi in
    if si >= b.len then scan_from snapshot ctx (bi + 1) 0
    else begin
      let slot = Array.unsafe_get b.slots si in
      if slot.live && Ofmatch.matches slot.entry.ofmatch ctx then
        slot.some_entry
      else scan_from snapshot ctx bi (si + 1)
    end
  end

let[@lint.zero_alloc] snapshot_peek snapshot ctx = scan_from snapshot ctx 0 0

let[@lint.zero_alloc] peek_batch t ctxs out =
  if Array.length out < Array.length ctxs then
    invalid_arg "Flow_table.peek_batch: output array shorter than input";
  let snapshot = snapshot t in
  for i = 0 to Array.length ctxs - 1 do
    Array.unsafe_set out i (scan_from snapshot (Array.unsafe_get ctxs i) 0 0)
  done

let[@lint.zero_alloc] lookup_batch t ctxs out =
  if Array.length out < Array.length ctxs then
    invalid_arg "Flow_table.lookup_batch: output array shorter than input";
  t.lookups <- t.lookups + Array.length ctxs;
  let snapshot = snapshot t in
  for i = 0 to Array.length ctxs - 1 do
    match scan_from snapshot (Array.unsafe_get ctxs i) 0 0 with
    | None -> Array.unsafe_set out i None
    | Some e as hit ->
      e.packets <- e.packets + 1;
      Array.unsafe_set out i hit
  done

let entries t =
  let acc = ref [] in
  iter_buckets t (fun _ slot -> acc := slot.entry :: !acc);
  List.rev !acc

let size t = t.size
let lookups t = t.lookups

let pp ppf t =
  List.iter
    (fun e ->
      Fmt.pf ppf "prio=%-5d %a -> %a (pkts=%d)@." e.priority Ofmatch.pp e.ofmatch
        Action.pp_list e.actions e.packets)
    (entries t)
