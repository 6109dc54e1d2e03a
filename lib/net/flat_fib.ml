(* Stride-compressed (16/8/8) multibit LPM table.

   The per-bit trie in Lpm resolves a lookup with up to 32 dependent
   pointer loads and allocates a tuple per hit. Here a lookup is at
   most three array indexings: a 65536-slot root covering bits 0-15,
   then optional 256-slot nodes for bits 16-23 and 24-31, DIR-24-8
   style. Prefixes are expanded into every slot their range covers at
   insert time, so the lookup itself does no masking or prefix math.

   Each level stores only prefixes in its exclusive length band — root
   /0-/16, level-1 /17-/24, level-2 /25-/32 — and within a slot the
   longest covering prefix wins (shorter ones are shadowed at insert
   time). That makes "deepest set slot wins" exactly longest-prefix
   match, with shallower levels as fallback.

   Value slots are ['a option] with the [Some] allocated once per
   insert and shared across the expanded range, so [lookup_value]
   returns a stored immutable and allocates nothing. A parallel
   [Bytes] of per-slot prefix lengths (0xff = empty) drives the
   overwrite rule on insert and tells a removal which slots it owns.
   A prefix-keyed hashtable holding those same [Some] cells is the
   authoritative binding set for [find_exact], [iter] and the removal
   refill, all off the hot path.

   Interior nodes live in a pool indexed by int (0 = the never-read
   sentinel, standing for "no child"), with a free list so removal
   churn recycles rather than leaks. Only level-1 nodes ever have
   children, so every node starts on the table's shared all-zero
   [no_children] array and gets its own on its first level-2 child. *)

module Prefix_table = Hashtbl.Make (Prefix)

type 'a node = {
  values : 'a option array; (* 256 slots *)
  plens : Bytes.t;          (* per-slot owning prefix length; 0xff = empty *)
  mutable children : int array; (* pool indices, 0 = none; or [no_children] *)
  mutable occupied : int;   (* set slots + live children; 0 = freeable *)
}

type 'a t = {
  bindings : 'a option Prefix_table.t; (* always [Some], the cell the slots share *)
  root_values : 'a option array; (* 65536 *)
  root_plens : Bytes.t;
  root_children : int array;
  no_children : int array; (* 256 zeros, never written *)
  mutable pool : 'a node array;
  mutable pool_len : int;
  mutable free : int list;
}

let root_slots = 65536
let empty_plen = 0xff

let sentinel () =
  { values = [||]; plens = Bytes.empty; children = [||]; occupied = 0 }

let create () =
  {
    bindings = Prefix_table.create 64;
    root_values = Array.make root_slots None;
    root_plens = Bytes.make root_slots '\xff';
    root_children = Array.make root_slots 0;
    no_children = Array.make 256 0;
    pool = [| sentinel () |];
    pool_len = 1;
    free = [];
  }

let new_node t =
  {
    values = Array.make 256 None;
    plens = Bytes.make 256 '\xff';
    children = t.no_children;
    occupied = 0;
  }

(* A recycled node was emptied slot by slot before it was freed, and
   gave back its child array, so it comes back clean; only pool growth
   allocates. *)
let alloc_node t =
  match t.free with
  | i :: rest ->
    t.free <- rest;
    i
  | [] ->
    if t.pool_len = Array.length t.pool then begin
      let grown = Array.make (2 * Array.length t.pool) t.pool.(0) in
      Array.blit t.pool 0 grown 0 t.pool_len;
      t.pool <- grown
    end;
    let i = t.pool_len in
    t.pool.(i) <- new_node t;
    t.pool_len <- t.pool_len + 1;
    i

(* A node is freed only once [occupied] is 0, so its own child array,
   if it had one, is all zeros and can go. *)
let free_node t idx =
  t.pool.(idx).children <- t.no_children;
  t.free <- idx :: t.free

(* Write [sv] into every slot of [base, base+count) not owned by a
   longer prefix. An equal stored length can only be this same prefix
   re-bound, so overwrite on <=. *)
let set_root_range t ~base ~count ~len sv =
  for i = base to base + count - 1 do
    let cur = Bytes.get_uint8 t.root_plens i in
    if cur = empty_plen || cur <= len then begin
      t.root_values.(i) <- sv;
      Bytes.set_uint8 t.root_plens i len
    end
  done

let set_node_range n ~base ~count ~len sv =
  for i = base to base + count - 1 do
    let cur = Bytes.get_uint8 n.plens i in
    if cur = empty_plen || cur <= len then begin
      if cur = empty_plen then n.occupied <- n.occupied + 1;
      n.values.(i) <- sv;
      Bytes.set_uint8 n.plens i len
    end
  done

let ensure_root_child t ri =
  match t.root_children.(ri) with
  | 0 ->
    let i = alloc_node t in
    t.root_children.(ri) <- i;
    t.pool.(i)
  | c -> t.pool.(c)

let ensure_child t n i1 =
  match n.children.(i1) with
  | 0 ->
    if n.children == t.no_children then n.children <- Array.make 256 0;
    let i = alloc_node t in
    n.children.(i1) <- i;
    n.occupied <- n.occupied + 1;
    t.pool.(i)
  | c -> t.pool.(c)

let insert t prefix v =
  let sv = Some v in
  Prefix_table.replace t.bindings prefix sv;
  let len = Prefix.length prefix in
  let net = Ipv4.to_int (Prefix.network prefix) in
  if len <= 16 then
    set_root_range t ~base:(net lsr 16) ~count:(1 lsl (16 - len)) ~len sv
  else begin
    let n1 = ensure_root_child t (net lsr 16) in
    if len <= 24 then
      set_node_range n1
        ~base:((net lsr 8) land 0xff)
        ~count:(1 lsl (24 - len))
        ~len sv
    else begin
      let n2 = ensure_child t n1 ((net lsr 8) land 0xff) in
      set_node_range n2 ~base:(net land 0xff) ~count:(1 lsl (32 - len)) ~len sv
    end
  end

(* Removal vacates every slot the prefix owned (stored length = its
   length — two equal-length prefixes never overlap, so ownership is
   unambiguous). A vacated slot was owned by no longer prefix, so its
   replacement is the longest bound prefix shorter than the removed
   one, within the level's band, that covers the slot; and any such
   prefix covers the whole removed range. One probe per length, from
   [len - 1] down to the band's [floor], answers for every vacated
   slot at once. *)
let replacement t net ~len ~floor =
  let addr = Ipv4.of_int net in
  let rec probe l =
    if l < floor then (empty_plen, None)
    else
      match Prefix_table.find t.bindings (Prefix.make addr l) with
      | sv -> (l, sv)
      | exception Not_found -> probe (l - 1)
  in
  probe (len - 1)

let vacate_root t ~base ~count ~len (plen, sv) =
  for i = base to base + count - 1 do
    if Bytes.get_uint8 t.root_plens i = len then begin
      t.root_values.(i) <- sv;
      Bytes.set_uint8 t.root_plens i plen
    end
  done

let vacate_node n ~base ~count ~len (plen, sv) =
  for i = base to base + count - 1 do
    if Bytes.get_uint8 n.plens i = len then begin
      n.values.(i) <- sv;
      Bytes.set_uint8 n.plens i plen;
      if plen = empty_plen then n.occupied <- n.occupied - 1
    end
  done

let remove t prefix =
  if Prefix_table.mem t.bindings prefix then begin
    Prefix_table.remove t.bindings prefix;
    let len = Prefix.length prefix in
    let net = Ipv4.to_int (Prefix.network prefix) in
    if len <= 16 then
      vacate_root t ~base:(net lsr 16) ~count:(1 lsl (16 - len)) ~len
        (replacement t net ~len ~floor:0)
    else begin
      let ri = net lsr 16 in
      match t.root_children.(ri) with
      | 0 -> () (* insert created the node; unreachable for a live binding *)
      | c1 ->
        let n1 = t.pool.(c1) in
        (if len <= 24 then
           vacate_node n1
             ~base:((net lsr 8) land 0xff)
             ~count:(1 lsl (24 - len))
             ~len
             (replacement t net ~len ~floor:17)
         else begin
           let i1 = (net lsr 8) land 0xff in
           match n1.children.(i1) with
           | 0 -> ()
           | c2 ->
             let n2 = t.pool.(c2) in
             vacate_node n2 ~base:(net land 0xff) ~count:(1 lsl (32 - len)) ~len
               (replacement t net ~len ~floor:25);
             if n2.occupied = 0 then begin
               n1.children.(i1) <- 0;
               n1.occupied <- n1.occupied - 1;
               free_node t c2
             end
         end);
        if n1.occupied = 0 then begin
          t.root_children.(ri) <- 0;
          free_node t c1
        end
    end
  end

(* The hot path: at most three dependent array reads, deepest set slot
   wins, and the returned ['a option] is the one stored at insert time
   — no allocation, no closure, no prefix reconstruction. Indices are
   masked to their level's width, so unsafe_get cannot escape. *)
let[@lint.zero_alloc] lookup_value t addr =
  let a = Ipv4.to_int addr in
  let i0 = a lsr 16 in
  let c1 = Array.unsafe_get t.root_children i0 in
  if c1 = 0 then Array.unsafe_get t.root_values i0
  else begin
    let n1 = Array.unsafe_get t.pool c1 in
    let i1 = (a lsr 8) land 0xff in
    let c2 = Array.unsafe_get n1.children i1 in
    if c2 = 0 then
      match Array.unsafe_get n1.values i1 with
      | None -> Array.unsafe_get t.root_values i0
      | some -> some
    else begin
      let n2 = Array.unsafe_get t.pool c2 in
      let i2 = a land 0xff in
      match Array.unsafe_get n2.values i2 with
      | None -> (
        match Array.unsafe_get n1.values i1 with
        | None -> Array.unsafe_get t.root_values i0
        | some -> some)
      | some -> some
    end
  end

(* Compatibility lookup reconstructing the winning prefix from the
   stored per-slot length — convenient for tests and callers that need
   the match, not for the per-packet path. *)
let lookup t addr =
  let a = Ipv4.to_int addr in
  let i0 = a lsr 16 in
  let best_plen = ref empty_plen in
  let best_v = ref None in
  let take plens values i =
    let l = Bytes.get_uint8 plens i in
    if l <> empty_plen then begin
      best_plen := l;
      best_v := values.(i)
    end
  in
  take t.root_plens t.root_values i0;
  (match t.root_children.(i0) with
  | 0 -> ()
  | c1 ->
    let n1 = t.pool.(c1) in
    let i1 = (a lsr 8) land 0xff in
    take n1.plens n1.values i1;
    (match n1.children.(i1) with
    | 0 -> ()
    | c2 ->
      let n2 = t.pool.(c2) in
      take n2.plens n2.values (a land 0xff)));
  match !best_v with
  | None -> None
  | Some v -> Some (Prefix.make addr !best_plen, v)

let[@lint.zero_alloc] lookup_batch t addrs out =
  let n = Array.length addrs in
  if Array.length out < n then
    invalid_arg "Flat_fib.lookup_batch: output array shorter than input";
  for k = 0 to n - 1 do
    Array.unsafe_set out k (lookup_value t (Array.unsafe_get addrs k))
  done

let find_exact t prefix =
  match Prefix_table.find t.bindings prefix with
  | sv -> sv
  | exception Not_found -> None

(* [Prefix.compare] is (unsigned network, length): the pre-order of a
   binary trie over the same prefixes. *)
let to_list t =
  Prefix_table.fold
    (fun p sv acc -> match sv with Some v -> (p, v) :: acc | None -> acc)
    t.bindings []
  |> List.sort (fun (p, _) (q, _) -> Prefix.compare p q)

let iter t f = List.iter (fun (p, v) -> f p v) (to_list t)
let fold t ~init ~f = List.fold_left (fun acc (p, v) -> f acc p v) init (to_list t)
let cardinal t = Prefix_table.length t.bindings
let is_empty t = cardinal t = 0
let nodes t = t.pool_len - 1 - List.length t.free

let clear t =
  Prefix_table.reset t.bindings;
  Array.fill t.root_values 0 root_slots None;
  Bytes.fill t.root_plens 0 root_slots '\xff';
  Array.fill t.root_children 0 root_slots 0;
  t.pool <- [| t.pool.(0) |];
  t.pool_len <- 1;
  t.free <- []
