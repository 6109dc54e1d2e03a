type t = {
  buckets_per_decade : int;
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

(* The covered range: microseconds to hours when samples are in
   seconds. *)
let lo = 1e-6
let hi = 1e4

let create ?(buckets_per_decade = 20) () =
  if buckets_per_decade < 1 then
    invalid_arg "Histogram.create: buckets_per_decade must be >= 1";
  let n =
    int_of_float (Float.ceil (Float.log10 (hi /. lo) *. float_of_int buckets_per_decade))
  in
  {
    buckets_per_decade;
    buckets = Array.make (Stdlib.max n 1) 0;
    count = 0;
    sum = 0.0;
    min_v = Float.infinity;
    max_v = Float.neg_infinity;
  }

let n_buckets t = Array.length t.buckets

(* Lower bound of bucket [i]. *)
let bound t i = lo *. (10.0 ** (float_of_int i /. float_of_int t.buckets_per_decade))

let index_of t v =
  if v < lo then 0
  else
    let i =
      int_of_float
        (Float.floor (Float.log10 (v /. lo) *. float_of_int t.buckets_per_decade))
    in
    if i < 0 then 0 else if i >= n_buckets t then n_buckets t - 1 else i

let observe t v =
  if Float.is_finite v then begin
    t.buckets.(index_of t v) <- t.buckets.(index_of t v) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then Float.nan else t.sum /. float_of_int t.count
let min t = if t.count = 0 then Float.nan else t.min_v
let max t = if t.count = 0 then Float.nan else t.max_v

let percentile t p =
  if t.count = 0 then Float.nan
  else if p <= 0.0 then t.min_v
  else if p >= 100.0 then t.max_v
  else begin
    let rank = p /. 100.0 *. float_of_int t.count in
    let cum = ref 0.0 in
    let result = ref t.max_v in
    (try
       for i = 0 to n_buckets t - 1 do
         let c = float_of_int t.buckets.(i) in
         if c > 0.0 && !cum +. c >= rank then begin
           (* Interpolate within the bucket's bounds. *)
           let frac = (rank -. !cum) /. c in
           result := bound t i +. (frac *. (bound t (i + 1) -. bound t i));
           raise Exit
         end;
         cum := !cum +. c
       done
     with Exit -> ());
    (* The exact extremes beat the bucket approximation. *)
    Float.min t.max_v (Float.max t.min_v !result)
  end

let merge_into ~into t =
  if into.buckets_per_decade <> t.buckets_per_decade then
    invalid_arg "Histogram.merge_into: bucket specs differ";
  Array.iteri (fun i c -> into.buckets.(i) <- into.buckets.(i) + c) t.buckets;
  into.count <- into.count + t.count;
  into.sum <- into.sum +. t.sum;
  if t.min_v < into.min_v then into.min_v <- t.min_v;
  if t.max_v > into.max_v then into.max_v <- t.max_v

let clear t =
  Array.fill t.buckets 0 (n_buckets t) 0;
  t.count <- 0;
  t.sum <- 0.0;
  t.min_v <- Float.infinity;
  t.max_v <- Float.neg_infinity

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("sum", Json.Float t.sum);
      ("min", Json.Float (min t));
      ("max", Json.Float (max t));
      ("mean", Json.Float (mean t));
      ("p50", Json.Float (percentile t 50.0));
      ("p90", Json.Float (percentile t 90.0));
      ("p95", Json.Float (percentile t 95.0));
      ("p99", Json.Float (percentile t 99.0));
    ]

let pp ppf t =
  if t.count = 0 then Fmt.string ppf "empty"
  else
    Fmt.pf ppf "n=%d mean=%.6g p50=%.6g p95=%.6g p99=%.6g max=%.6g" t.count
      (mean t) (percentile t 50.0) (percentile t 95.0) (percentile t 99.0) (max t)
