module Table = Hashtbl.Make (struct
  type t = Net.Prefix.t

  let equal = Net.Prefix.equal
  let hash = Net.Prefix.hash
end)

module Peer_table = Hashtbl.Make (Int)

(* A peer's membership bitmap over prefix slots: bit [s] is set iff the
   peer has a candidate for the prefix stored in slot [s]. [bits] is
   always a whole number of 64-bit words, so [withdraw_peer] can skip
   empty words with one read. *)
type peer_index = {
  mutable bits : Bytes.t;
  mutable count : int; (* set bits *)
}

type t = {
  shards : int Table.t array;
      (* prefix -> slot, one table per mask length (index 0..32): every
         update touches exactly the shard of its own length, so a shard
         only ever hashes and resizes over same-length prefixes, the
         dominant /24 band never drags the thin aggregate bands through
         its resizes, and per-length occupancy is readable in O(1). *)
  mutable cands : Route.t list array;
      (* slot -> ranked candidates; [] for a free slot *)
  mutable prefix_of : Net.Prefix.t array; (* slot -> its prefix *)
  mutable next_slot : int; (* slots [0, next_slot) have been handed out *)
  mutable free : int array; (* recycled slots, a stack of [n_free] *)
  mutable n_free : int;
  by_peer : peer_index Peer_table.t;
      (* peer_id -> membership bitmap. Maintained incrementally (one bit
         flip per announce/withdraw) so a session loss touches only the
         peer's own prefixes' candidate lists. *)
  mutable visits : int;
      (* monotonic count of candidate-list nodes inspected by the
         splice/withdraw walks — the work measure the peer-down
         regression test and the ribscale bench pin. *)
}

(* Slot arrays start small and double: thousands of short-lived RIBs
   (checker rigs, per-router RIBs) hold only a handful of prefixes. *)
let initial_slots = 16

let create () =
  {
    shards = Array.init 33 (fun _ -> Table.create 64);
    cands = Array.make initial_slots [];
    prefix_of = Array.make initial_slots Net.Prefix.default_route;
    next_slot = 0;
    free = Array.make initial_slots 0;
    n_free = 0;
    by_peer = Peer_table.create 16;
    visits = 0;
  }

type change = {
  prefix : Net.Prefix.t;
  before : Route.t list;
  after : Route.t list;
}

let shard t prefix = t.shards.(Net.Prefix.length prefix)

let ordered t prefix =
  match Table.find (shard t prefix) prefix with
  | slot -> t.cands.(slot)
  | exception Not_found -> []

let best t prefix =
  match ordered t prefix with [] -> None | r :: _ -> Some r

(* --- slots -------------------------------------------------------------- *)

let grow a fill =
  let n = Array.length a in
  let a' = Array.make (2 * n) fill in
  Array.blit a 0 a' 0 n;
  a'

let alloc_slot t prefix =
  let slot =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free.(t.n_free)
    end
    else begin
      if t.next_slot = Array.length t.cands then begin
        t.cands <- grow t.cands [];
        t.prefix_of <- grow t.prefix_of Net.Prefix.default_route
      end;
      let s = t.next_slot in
      t.next_slot <- s + 1;
      s
    end
  in
  t.prefix_of.(slot) <- prefix;
  slot

(* Called once the slot's last candidate has gone, so no peer's bitmap
   still has its bit set. *)
let release_slot t slot =
  if t.n_free = Array.length t.free then t.free <- grow t.free 0;
  t.free.(t.n_free) <- slot;
  t.n_free <- t.n_free + 1

(* --- per-peer prefix index -------------------------------------------- *)

let index_add t ~peer_id slot =
  let idx =
    match Peer_table.find t.by_peer peer_id with
    | idx -> idx
    | exception Not_found ->
      (* Sized to cover every slot handed out so far: a peer that joins a
         loaded table never re-grows its bitmap. *)
      let words = max 1 ((Array.length t.cands + 63) lsr 6) in
      let idx = { bits = Bytes.make (words * 8) '\000'; count = 0 } in
      Peer_table.add t.by_peer peer_id idx;
      idx
  in
  let byte = slot lsr 3 in
  let len = Bytes.length idx.bits in
  if byte >= len then begin
    (* Grow by doubling to a whole number of words covering [byte]. *)
    let bits = Bytes.make (max (2 * len) ((byte + 8) land lnot 7)) '\000' in
    Bytes.blit idx.bits 0 bits 0 len;
    idx.bits <- bits
  end;
  let c = Char.code (Bytes.get idx.bits byte) and m = 1 lsl (slot land 7) in
  if c land m = 0 then begin
    Bytes.set idx.bits byte (Char.unsafe_chr (c lor m));
    idx.count <- idx.count + 1
  end

(* Only called when the peer held a candidate in [slot], so its bit is
   set. *)
let index_remove t ~peer_id slot =
  let idx = Peer_table.find t.by_peer peer_id in
  let byte = slot lsr 3 in
  let c = Char.code (Bytes.get idx.bits byte) in
  Bytes.set idx.bits byte (Char.unsafe_chr (c land lnot (1 lsl (slot land 7))));
  idx.count <- idx.count - 1

let peer_prefix_count t ~peer_id =
  match Peer_table.find t.by_peer peer_id with
  | idx -> idx.count
  | exception Not_found -> 0

(* The peer's prefixes, ascending. The walk reads the bitmap a 64-bit
   word at a time, skips empty words, and stops once all [count] set
   bits have been found. *)
let peer_prefixes t ~peer_id =
  match Peer_table.find t.by_peer peer_id with
  | exception Not_found -> []
  | { bits; count } ->
    let out = Array.make count Net.Prefix.default_route in
    let found = ref 0 and word = ref 0 in
    while !found < count do
      let base = !word * 8 in
      if not (Int64.equal (Bytes.get_int64_le bits base) 0L) then
        for byte = base to base + 7 do
          let c = Char.code (Bytes.get bits byte) in
          if c <> 0 then
            for bit = 0 to 7 do
              if c land (1 lsl bit) <> 0 then begin
                out.(!found) <- t.prefix_of.((byte * 8) + bit);
                incr found
              end
            done
        done;
      incr word
    done;
    Array.sort Net.Prefix.compare out;
    Array.to_list out

(* --- candidate list maintenance --------------------------------------- *)

(* Every node inspected by the walks below bumps [t.visits]; the
   counters are how the tests prove the incremental decision process
   re-ranks only the touched prefix's splice, never a full re-scan. *)

let rec insert_sorted t route = function
  | [] -> [route]
  | r :: rest as l ->
    t.visits <- t.visits + 1;
    if Decision.compare route r <= 0 then route :: l
    else r :: insert_sorted t route rest

let rec drop_peer t ~peer_id = function
  | [] -> []
  | (r : Route.t) :: rest ->
    t.visits <- t.visits + 1;
    if r.peer_id = peer_id then rest else r :: drop_peer t ~peer_id rest

exception Unchanged

(* One walk replacing the old List.filter + insert_sorted pair: drop the
   peer's previous candidate and splice the new route in at its rank.
   Raises [Unchanged] (before allocating any of the result) when the
   peer re-announces a route identical to its stored one. *)
let rec splice t (route : Route.t) = function
  | [] -> [route]
  | (r : Route.t) :: rest as l ->
    t.visits <- t.visits + 1;
    if r.peer_id = route.peer_id then
      if Route.equal r route then raise_notrace Unchanged
      else insert_sorted t route rest
    else if Decision.compare route r <= 0 then
      route :: drop_peer t ~peer_id:route.peer_id l
    else r :: splice t route rest

let announce t prefix (route : Route.t) =
  let shard = shard t prefix in
  match Table.find shard prefix with
  | slot -> (
    let before = t.cands.(slot) in
    match splice t route before with
    | after ->
      t.cands.(slot) <- after;
      index_add t ~peer_id:route.peer_id slot;
      Some { prefix; before; after }
    | exception Unchanged -> None)
  | exception Not_found ->
    let after = [ route ] in
    let slot = alloc_slot t prefix in
    t.cands.(slot) <- after;
    Table.add shard prefix slot;
    index_add t ~peer_id:route.peer_id slot;
    Some { prefix; before = []; after }

let withdraw t prefix ~peer_id =
  let shard = shard t prefix in
  match Table.find shard prefix with
  | exception Not_found -> None
  | slot ->
    let before = t.cands.(slot) in
    if
      List.exists
        (fun (r : Route.t) ->
          t.visits <- t.visits + 1;
          r.peer_id = peer_id)
        before
    then begin
      let after = drop_peer t ~peer_id before in
      index_remove t ~peer_id slot;
      t.cands.(slot) <- after;
      (match after with
      | [] ->
        Table.remove shard prefix;
        release_slot t slot
      | _ :: _ -> ());
      Some { prefix; before; after }
    end
    else None

let withdraw_peer t ~peer_id =
  (* The bitmap names exactly the affected prefixes, so a peer holding k
     routes costs O(k log k) (the sort makes the change order
     deterministic) plus a word-at-a-time walk of its bitmap, never a
     candidate walk of a prefix the peer did not route. *)
  List.filter_map (fun prefix -> withdraw t prefix ~peer_id) (peer_prefixes t ~peer_id)

let apply_update t ~peer_id ~peer_router_id ?(ebgp = true) ?(igp_cost = 0)
    (u : Message.update) =
  let withdrawals =
    List.filter_map (fun prefix -> withdraw t prefix ~peer_id) u.withdrawn
  in
  let announcements =
    match u.attrs with
    | None -> []
    | Some attrs ->
      let route = Route.make ~ebgp ~igp_cost ~peer_id ~peer_router_id attrs in
      List.filter_map (fun prefix -> announce t prefix route) u.nlri
  in
  withdrawals @ announcements

let cardinal t = t.next_slot - t.n_free

let length_histogram t = Array.map Table.length t.shards

let candidate_visits t = t.visits

let iter t f =
  (* Shards ascending by mask length; order within a shard unspecified. *)
  Array.iter (fun s -> Table.iter (fun prefix slot -> f prefix t.cands.(slot)) s) t.shards

let fold t ~init ~f =
  Array.fold_left
    (fun acc s ->
      Table.fold (fun prefix slot acc -> f acc prefix t.cands.(slot)) s acc)
    init t.shards
