(* Array-backed binary min-heap over int keys. An entry is three ints in
   parallel arrays: its key, the sequence number of its push (so equal
   keys pop in FIFO order), and the slot of its value in [values]. The
   heap arrays hold no pointer, so a sift moves a hole down or up and
   writes plain ints: no comparison closure, no [caml_modify].

   Values live in a slab indexed by slot. A popped slot goes on the free
   stack and its value is overwritten with [dummy] at once: a popped
   value must not linger in the slab, or the heap would pin the event
   (and everything its closure captures) until the slot is reused. The
   arrays also shrink once occupancy drops below a quarter, re-packing
   the live values into the low slots, so a burst of events does not
   hold peak capacity forever. *)

type 'a t = {
  dummy : 'a;
  mutable keys : int array;
  mutable seqs : int array;
  mutable slots : int array;  (* heap position -> slot in [values] *)
  mutable values : 'a array;
  mutable free : int array;  (* stack of vacated slots *)
  mutable n_free : int;
  mutable size : int;  (* slots [0, size + n_free) are live or on [free] *)
  mutable next_seq : int;
}

let min_capacity = 16

let create ~dummy =
  {
    dummy;
    keys = [||];
    seqs = [||];
    slots = [||];
    values = [||];
    free = [||];
    n_free = 0;
    size = 0;
    next_seq = 0;
  }

let size h = h.size
let is_empty h = h.size = 0
let capacity h = Array.length h.keys

(* Moves every array to [cap] entries. The live values are re-packed
   into slots [0, size), in heap order, so the free stack empties. *)
let resize h cap =
  let keys = Array.make cap 0 and seqs = Array.make cap 0 and slots = Array.make cap 0 in
  let values = Array.make cap h.dummy in
  for i = 0 to h.size - 1 do
    keys.(i) <- h.keys.(i);
    seqs.(i) <- h.seqs.(i);
    slots.(i) <- i;
    values.(i) <- h.values.(h.slots.(i))
  done;
  h.keys <- keys;
  h.seqs <- seqs;
  h.slots <- slots;
  h.values <- values;
  h.free <- Array.make cap 0;
  h.n_free <- 0

(* Called by [push] when full: amortised O(1), off the per-event path. *)
let grow h = resize h (max min_capacity (2 * capacity h))

(* Called by [pop] below a quarter full; never below [min_capacity], to
   avoid thrash. *)
let shrink h = resize h (max min_capacity (capacity h / 2))

let[@inline] before (k1 : int) (s1 : int) (k2 : int) (s2 : int) =
  k1 < k2 || (k1 = k2 && s1 < s2)

let[@inline] place h i key seq slot =
  Array.unsafe_set h.keys i key;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.slots i slot

(* Moves the entry at [j] into the hole at [i]. *)
let[@inline] move h i j =
  place h i (Array.unsafe_get h.keys j) (Array.unsafe_get h.seqs j)
    (Array.unsafe_get h.slots j)

let[@lint.zero_alloc] rec sift_up h i key seq slot =
  if i = 0 then place h 0 key seq slot
  else begin
    let parent = (i - 1) / 2 in
    if before key seq (Array.unsafe_get h.keys parent) (Array.unsafe_get h.seqs parent)
    then begin
      move h i parent;
      sift_up h parent key seq slot
    end
    else place h i key seq slot
  end

let[@lint.zero_alloc] rec sift_down h i key seq slot =
  let left = (2 * i) + 1 in
  if left >= h.size then place h i key seq slot
  else begin
    let right = left + 1 in
    let child =
      if
        right < h.size
        && before (Array.unsafe_get h.keys right) (Array.unsafe_get h.seqs right)
             (Array.unsafe_get h.keys left) (Array.unsafe_get h.seqs left)
      then right
      else left
    in
    if before (Array.unsafe_get h.keys child) (Array.unsafe_get h.seqs child) key seq
    then begin
      move h i child;
      sift_down h child key seq slot
    end
    else place h i key seq slot
  end

let[@lint.zero_alloc] push h key value =
  if h.size = capacity h then grow h;
  let slot =
    if h.n_free > 0 then begin
      h.n_free <- h.n_free - 1;
      h.free.(h.n_free)
    end
    else h.size
  in
  h.values.(slot) <- value;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) key seq slot

let[@lint.zero_alloc] pop h =
  if h.size = 0 then h.dummy
  else begin
    let top = h.slots.(0) in
    let value = h.values.(top) in
    h.values.(top) <- h.dummy;
    h.free.(h.n_free) <- top;
    h.n_free <- h.n_free + 1;
    let last = h.size - 1 in
    h.size <- last;
    if last > 0 then sift_down h 0 h.keys.(last) h.seqs.(last) h.slots.(last);
    if capacity h > min_capacity && h.size < capacity h / 4 then shrink h;
    value
  end

let min_key h =
  if h.size = 0 then invalid_arg "Heap.min_key: empty heap" else h.keys.(0)

let to_list h =
  let rec collect i acc = if i < 0 then acc else collect (i - 1) (h.values.(h.slots.(i)) :: acc) in
  collect (h.size - 1) []
