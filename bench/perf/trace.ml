(* Spans around the benchmark's calls into the program.

   A span has a site (the public function called, named
   "<layer>.<module>.<function>"), start and end on the monotonic ns
   clock, the span that encloses it, and the id of the operation it
   serves (an update, a burst, a schedule, a failover). Every call is
   counted and its self time (duration minus the time its child spans
   cover) is added to its site's total; one call in 64 of each site
   keeps its span, in preallocated arrays that are written out once the
   run ends. With tracing off, [enter] and [leave] test one flag. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let keep_one_in = 64
let max_depth = 32

type t = {
  mutable enabled : bool;
  mutable names : string array;
  mutable n_sites : int;
  mutable calls : int array;
  mutable items : int array;  (* work items handled: packets, writes, changes *)
  mutable self_ns : int array;
  mutable samples : Stat.Ivec.t array;  (* self ns of kept calls, per site *)
  (* the open spans *)
  mutable depth : int;
  st_site : int array;
  st_start : int array;
  st_child : int array;
  st_slot : int array;
  (* the current operation *)
  mutable op_id : int;
  (* kept spans *)
  sp_site : int array;
  sp_parent : int array;
  sp_op : int array;
  sp_start : int array;
  sp_end : int array;
  sp_self : int array;
  mutable n_spans : int;
  mutable dropped : int;
}

let create ?(capacity = 1 lsl 18) () =
  {
    enabled = false;
    names = Array.make 32 "";
    n_sites = 0;
    calls = Array.make 32 0;
    items = Array.make 32 0;
    self_ns = Array.make 32 0;
    samples = Array.init 32 (fun _ -> Stat.Ivec.create ());
    depth = 0;
    st_site = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_slot = Array.make max_depth (-1);
    op_id = -1;
    sp_site = Array.make capacity 0;
    sp_parent = Array.make capacity 0;
    sp_op = Array.make capacity 0;
    sp_start = Array.make capacity 0;
    sp_end = Array.make capacity 0;
    sp_self = Array.make capacity 0;
    n_spans = 0;
    dropped = 0;
  }

(* A disabled recorder with no span storage, for untraced runs. *)
let off () = create ~capacity:1 ()

let set_enabled t on =
  if t.depth <> 0 then invalid_arg "Trace.set_enabled: spans open";
  t.enabled <- on

let enabled t = t.enabled

let site t name =
  let rec find i = if i >= t.n_sites then None else if t.names.(i) = name then Some i else find (i + 1) in
  match find 0 with
  | Some i -> i
  | None ->
    if t.n_sites = Array.length t.names then begin
      let grow a fill = Array.append a (Array.make (Array.length a) fill) in
      t.names <- grow t.names "";
      t.calls <- grow t.calls 0;
      t.items <- grow t.items 0;
      t.self_ns <- grow t.self_ns 0;
      t.samples <-
        Array.append t.samples (Array.init (Array.length t.samples) (fun _ -> Stat.Ivec.create ()))
    end;
    let i = t.n_sites in
    t.names.(i) <- name;
    t.n_sites <- i + 1;
    i

(* The operation the spans that follow serve. *)
let op t id = t.op_id <- id

let enter t s =
  if t.enabled then begin
    let d = t.depth in
    if d >= max_depth then invalid_arg "Trace.enter: too deep";
    let keep = t.calls.(s) mod keep_one_in = 0 in
    let slot =
      if keep && t.n_spans < Array.length t.sp_site then begin
        let slot = t.n_spans in
        t.n_spans <- slot + 1;
        t.sp_site.(slot) <- s;
        t.sp_parent.(slot) <- (if d > 0 then t.st_slot.(d - 1) else -1);
        t.sp_op.(slot) <- t.op_id;
        slot
      end
      else begin
        if keep then t.dropped <- t.dropped + 1;
        -1
      end
    in
    t.st_site.(d) <- s;
    t.st_child.(d) <- 0;
    t.st_slot.(d) <- slot;
    t.depth <- d + 1;
    t.st_start.(d) <- now_ns ()
  end

(* Closes the innermost span, which handled [n] work items. *)
let leave_items t n =
  if t.enabled then begin
    let stop = now_ns () in
    let d = t.depth - 1 in
    t.depth <- d;
    let start = t.st_start.(d) in
    let dur = stop - start in
    let self = dur - t.st_child.(d) in
    let s = t.st_site.(d) in
    t.calls.(s) <- t.calls.(s) + 1;
    t.items.(s) <- t.items.(s) + n;
    t.self_ns.(s) <- t.self_ns.(s) + self;
    if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    let slot = t.st_slot.(d) in
    if slot >= 0 then begin
      t.sp_start.(slot) <- start;
      t.sp_end.(slot) <- stop;
      t.sp_self.(slot) <- self;
      Stat.Ivec.push t.samples.(s) self
    end
  end

let leave t = leave_items t 1

(* Credits [n] more work items to a site, for a count known only after
   its span closed. *)
let add_items t s n = if t.enabled then t.items.(s) <- t.items.(s) + n

(* Per-site totals. *)

type site_stats = {
  name : string;
  layer : string;
  calls : int;
  items : int;
  self_s : float;
  p50_ns : float;
  p90_ns : float;
}

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let stats t =
  List.init t.n_sites (fun i ->
      let p50, p90 =
        match Stat.ivec_percentiles t.samples.(i) ~scale:1.0 [50.0; 90.0] with
        | [a; b] -> (a, b)
        | _ -> assert false
      in
      {
        name = t.names.(i);
        layer = layer_of t.names.(i);
        calls = t.calls.(i);
        items = t.items.(i);
        self_s = float_of_int t.self_ns.(i) /. 1e9;
        p50_ns = p50;
        p90_ns = p90;
      })

let self_s_total t = float_of_int (Array.fold_left ( + ) 0 (Array.sub t.self_ns 0 t.n_sites)) /. 1e9
let spans_kept t = t.n_spans

let to_json t ~workload ~seed =
  let sites = Array.to_list (Array.sub t.names 0 t.n_sites) in
  let spans =
    List.init t.n_spans (fun i ->
        Pjson.Arr
          (List.map
             (fun a -> Pjson.Num (float_of_int a.(i)))
             [t.sp_site; t.sp_parent; t.sp_op; t.sp_start; t.sp_end; t.sp_self]))
  in
  Pjson.Obj
    [
      ("schema", Pjson.Str "perf-spans/v1");
      ("workload", Pjson.Str workload);
      ("seed", Pjson.Num (float_of_int seed));
      ("keep_one_in", Pjson.Num (float_of_int keep_one_in));
      ("sites", Pjson.Arr (List.map (fun s -> Pjson.Str s) sites));
      ( "columns",
        Pjson.Arr
          (List.map
             (fun s -> Pjson.Str s)
             ["site"; "parent"; "op"; "start_ns"; "end_ns"; "self_ns"]) );
      ("spans", Pjson.Arr spans);
      ("dropped", Pjson.Num (float_of_int t.dropped));
    ]
