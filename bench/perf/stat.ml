(* Sample storage and order statistics. *)

(* A growable int vector: per-op latencies in ns, allocation-free to
   append once its capacity covers the run. *)
module Ivec = struct
  type t = { mutable data : int array; mutable len : int }

  let create ?(capacity = 1024) () = { data = Array.make (max 1 capacity) 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let bigger = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    Array.unsafe_set v.data v.len x;
    v.len <- v.len + 1

  let length v = v.len
  let to_array v = Array.sub v.data 0 v.len
  let sub v start len = Array.sub v.data start len
end

(* Linear interpolation between closest ranks (numpy's default and
   Experiments.Stats.percentile): p in [0, 100] over a sorted array. *)
let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let w = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. w)) +. (sorted.(hi) *. w)

let sorted_floats xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let percentile xs p = percentile_sorted (sorted_floats xs) p
let median xs = percentile xs 50.0

(* Percentiles of an int sample, converted by [scale] (e.g. ns -> us). *)
let ivec_percentiles v ~scale ps =
  let a = Ivec.to_array v in
  Array.sort Int.compare a;
  let f = Array.map (fun x -> float_of_int x *. scale) a in
  List.map (percentile_sorted f) ps

(* Quartiles as Python's statistics.quantiles(xs, n=4) computes them
   (the default 'exclusive' method); needs at least two values. *)
let quartiles xs =
  let d = sorted_floats xs in
  let n = Array.length d in
  if n < 2 then invalid_arg "Stat.quartiles: need two values";
  let m = n + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((d.(j - 1) *. (4.0 -. delta)) +. (d.(j) *. delta)) /. 4.0)
    [1; 2; 3]

(* Interquartile distance as a share of the median; 0 for one value. *)
let spread xs =
  if Array.length xs < 2 then 0.0
  else
    match quartiles xs with
    | [q1; q2; q3] -> if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2
    | _ -> assert false
