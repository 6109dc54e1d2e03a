type t = {
  pool : Net.Prefix.t;
  mutable next : int; (* next never-used host index to hand out *)
  free : (Net.Ipv4.t * Net.Mac.t) Queue.t; (* released pairs, FIFO *)
}

let default_pool = Net.Prefix.make (Net.Ipv4.of_octets 10 199 0 0) 16

(* VMAC n is [vmac_base + n]: 00:ff:00:00:00:01 upward. *)
let vmac_base = 0x00FF_0000_0000L

let create ?(pool = default_pool) () =
  if Net.Prefix.length pool > 24 then invalid_arg "Vnh.create: pool smaller than /24";
  { pool; next = 1; free = Queue.create () }

let capacity t = Net.Prefix.size t.pool - 2 (* skip network and broadcast *)

let fresh t =
  (* Recycled pairs go first, oldest first: FIFO maximises the time
     before a retired VMAC can reappear under a different group, which
     protects in-flight packets still tagged with the old meaning. *)
  match Queue.take_opt t.free with
  | Some pair -> pair
  | None ->
    if t.next > capacity t then failwith "Vnh.fresh: pool exhausted";
    let vnh = Net.Prefix.nth t.pool t.next in
    let vmac =
      Net.Mac.of_int64 (Int64.add vmac_base (Int64.of_int t.next))
    in
    t.next <- t.next + 1;
    (vnh, vmac)

let release t pair = Queue.add pair t.free

let allocated t = t.next - 1 - Queue.length t.free

let in_pool t ip = Net.Prefix.mem ip t.pool

let is_virtual_mac t mac =
  (* Range check against the high-water mark: a MAC stays recognisable
     as virtual even while its pair sits on the free list, so packets
     tagged just before a release are still classified correctly. *)
  let m = Net.Mac.to_int64 mac in
  Int64.compare m vmac_base > 0
  && Int64.compare m (Int64.add vmac_base (Int64.of_int (t.next - 1))) <= 0

let pool t = t.pool
