(* Tests for the simulation substrate: time, heap, engine, rng, trace. *)

let time_tests =
  let open Sim.Time in
  [
    Alcotest.test_case "unit conversions" `Quick (fun () ->
        Alcotest.(check int64) "us" 1_000L (to_ns (of_us 1));
        Alcotest.(check int64) "ms" 1_000_000L (to_ns (of_ms 1));
        Alcotest.(check int64) "sec" 1_500_000_000L (to_ns (of_sec 1.5));
        Alcotest.(check (float 1e-9)) "to_sec" 0.25 (to_sec (of_ms 250));
        Alcotest.(check (float 1e-9)) "to_ms" 2.5 (to_ms (of_us 2500)));
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        Alcotest.(check int64) "add" 3L (to_ns (add (of_ns 1L) (of_ns 2L)));
        Alcotest.(check int64) "sub negative" (-1L) (to_ns (sub (of_ns 1L) (of_ns 2L)));
        Alcotest.(check bool) "is_negative" true (is_negative (of_ns (-5L)));
        Alcotest.(check int64) "mul" 120L (to_ns (mul (of_ns 40L) 3));
        Alcotest.(check int64) "div" 40L (to_ns (div (of_ns 120L) 3)));
    Alcotest.test_case "comparisons and min/max" `Quick (fun () ->
        Alcotest.(check bool) "<" true (of_ns 1L < of_ns 2L);
        Alcotest.(check bool) ">=" true (of_ns 2L >= of_ns 2L);
        Alcotest.(check int64) "min" 1L (to_ns (min (of_ns 1L) (of_ns 2L)));
        Alcotest.(check int64) "max" 2L (to_ns (max (of_ns 1L) (of_ns 2L))));
    Alcotest.test_case "grid alignment" `Quick (fun () ->
        let grid = of_us 70 in
        Alcotest.(check int64) "next on multiple" 70_000L
          (to_ns (next_multiple ~grid (of_us 70)));
        Alcotest.(check int64) "next above" 140_000L
          (to_ns (next_multiple ~grid (of_ns 70_001L)));
        Alcotest.(check int64) "next from zero" 0L (to_ns (next_multiple ~grid zero));
        Alcotest.(check int64) "prev below" 70_000L
          (to_ns (prev_multiple ~grid (of_ns 139_999L)));
        Alcotest.(check int64) "prev on multiple" 140_000L
          (to_ns (prev_multiple ~grid (of_us 140))));
    Alcotest.test_case "pretty printing picks units" `Quick (fun () ->
        Alcotest.(check string) "ns" "999ns" (to_string (of_ns 999L));
        Alcotest.(check string) "us" "70.000us" (to_string (of_us 70));
        Alcotest.(check string) "ms" "2.000ms" (to_string (of_ms 2));
        Alcotest.(check string) "s" "1.500000s" (to_string (of_sec 1.5)));
    Alcotest.test_case "of_ns/to_ns round-trip at the edges" `Quick (fun () ->
        List.iter
          (fun ns ->
            Alcotest.(check int64) (Int64.to_string ns) ns (to_ns (of_ns ns)))
          [0L; 1L; -1L; Int64.of_int max_int; Int64.of_int min_int]);
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"of_ns/to_ns round-trip over 63-bit nanoseconds"
         ~count:1000 QCheck.int
         (fun ns ->
           let ns = Int64.of_int ns in
           Int64.equal (to_ns (of_ns ns)) ns));
  ]

let heap_tests =
  [
    Alcotest.test_case "pop order is sorted" `Quick (fun () ->
        let h = Sim.Heap.create ~cmp:Int.compare () in
        List.iter (Sim.Heap.push h) [5; 1; 4; 1; 3; 9; 2];
        let rec drain acc =
          match Sim.Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
        in
        Alcotest.(check (list int)) "sorted" [1; 1; 2; 3; 4; 5; 9] (drain []));
    Alcotest.test_case "equal keys pop FIFO" `Quick (fun () ->
        let h = Sim.Heap.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b) () in
        List.iter (Sim.Heap.push h) [(1, "a"); (0, "x"); (1, "b"); (1, "c")];
        let labels = ref [] in
        let rec drain () =
          match Sim.Heap.pop h with
          | Some (_, l) ->
            labels := l :: !labels;
            drain ()
          | None -> ()
        in
        drain ();
        Alcotest.(check (list string)) "fifo" ["x"; "a"; "b"; "c"] (List.rev !labels));
    Alcotest.test_case "size / peek / clear" `Quick (fun () ->
        let h = Sim.Heap.create ~cmp:Int.compare () in
        Alcotest.(check bool) "empty" true (Sim.Heap.is_empty h);
        Sim.Heap.push h 3;
        Sim.Heap.push h 1;
        Alcotest.(check int) "size" 2 (Sim.Heap.size h);
        Alcotest.(check (option int)) "peek" (Some 1) (Sim.Heap.peek h);
        Alcotest.(check int) "peek keeps" 2 (Sim.Heap.size h);
        Sim.Heap.clear h;
        Alcotest.(check (option int)) "cleared" None (Sim.Heap.pop h));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"heap drains like List.sort" ~count:200
         QCheck.(list int)
         (fun xs ->
           let h = Sim.Heap.create ~cmp:Int.compare () in
           List.iter (Sim.Heap.push h) xs;
           let rec drain acc =
             match Sim.Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
           in
           drain [] = List.sort Int.compare xs));
    Alcotest.test_case "pop does not retain the popped element" `Quick (fun () ->
        (* Regression: pop used to leave the vacated cell at
           cells.(size) holding the element (and everything its closure
           captured) until some later push overwrote the slot. *)
        let h = Sim.Heap.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b) () in
        let weak = Weak.create 2 in
        let populate =
          Sys.opaque_identity (fun () ->
              let first = Bytes.make 64 'x' and second = Bytes.make 64 'y' in
              Weak.set weak 0 (Some first);
              Weak.set weak 1 (Some second);
              Sim.Heap.push h (1, first);
              Sim.Heap.push h (2, second))
        in
        populate ();
        ignore (Sim.Heap.pop h);
        Gc.full_major ();
        Alcotest.(check bool) "popped value collected" false (Weak.check weak 0);
        Alcotest.(check bool) "remaining value alive" true (Weak.check weak 1);
        ignore (Sim.Heap.pop h);
        Gc.full_major ();
        Alcotest.(check bool) "drained heap pins nothing" false (Weak.check weak 1));
    Alcotest.test_case "array shrinks once occupancy drops below a quarter" `Quick
      (fun () ->
        let h = Sim.Heap.create ~cmp:Int.compare () in
        for i = 0 to 4095 do
          Sim.Heap.push h i
        done;
        let peak = Sim.Heap.capacity h in
        Alcotest.(check bool) "grew to hold the burst" true (peak >= 4096);
        for _ = 1 to 4090 do
          ignore (Sim.Heap.pop h)
        done;
        Alcotest.(check bool) "capacity released" true (Sim.Heap.capacity h < peak / 4);
        Alcotest.(check (option int)) "order survives shrinking" (Some 4090)
          (Sim.Heap.peek h);
        Alcotest.(check int) "six left" 6 (Sim.Heap.size h));
  ]

let engine_tests =
  [
    Alcotest.test_case "events run in time order" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let log = ref [] in
        let at ms tag =
          ignore
            (Sim.Engine.schedule_at e (Sim.Time.of_ms ms) (fun () -> log := tag :: !log))
        in
        at 30 "c";
        at 10 "a";
        at 20 "b";
        Sim.Engine.run e;
        Alcotest.(check (list string)) "order" ["a"; "b"; "c"] (List.rev !log);
        Alcotest.(check int64) "clock at last event" 30_000_000L
          (Sim.Time.to_ns (Sim.Engine.now e)));
    Alcotest.test_case "same-instant events run FIFO" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let log = ref [] in
        for i = 0 to 9 do
          ignore
            (Sim.Engine.schedule_at e (Sim.Time.of_ms 5) (fun () -> log := i :: !log))
        done;
        Sim.Engine.run e;
        Alcotest.(check (list int)) "fifo" [0; 1; 2; 3; 4; 5; 6; 7; 8; 9] (List.rev !log));
    Alcotest.test_case "cancel prevents execution" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let fired = ref false in
        let h = Sim.Engine.schedule_after e (Sim.Time.of_ms 1) (fun () -> fired := true) in
        Sim.Engine.cancel h;
        Sim.Engine.run e;
        Alcotest.(check bool) "not fired" false !fired);
    Alcotest.test_case "schedule_after rejects negative delay" `Quick (fun () ->
        let e = Sim.Engine.create () in
        Alcotest.check_raises "invalid"
          (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
            ignore (Sim.Engine.schedule_after e (Sim.Time.of_ns (-1L)) (fun () -> ()))));
    Alcotest.test_case "run ~until stops at horizon and advances clock" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let fired = ref 0 in
        ignore (Sim.Engine.schedule_at e (Sim.Time.of_ms 10) (fun () -> incr fired));
        ignore (Sim.Engine.schedule_at e (Sim.Time.of_ms 30) (fun () -> incr fired));
        Sim.Engine.run ~until:(Sim.Time.of_ms 20) e;
        Alcotest.(check int) "only first" 1 !fired;
        Alcotest.(check int64) "clock at horizon" 20_000_000L
          (Sim.Time.to_ns (Sim.Engine.now e));
        Sim.Engine.run e;
        Alcotest.(check int) "rest runs" 2 !fired);
    Alcotest.test_case "event at exactly the horizon runs" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let fired = ref false in
        ignore (Sim.Engine.schedule_at e (Sim.Time.of_ms 20) (fun () -> fired := true));
        Sim.Engine.run ~until:(Sim.Time.of_ms 20) e;
        Alcotest.(check bool) "fired" true !fired);
    Alcotest.test_case "every ticks at interval until cancelled" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let ticks = ref 0 in
        let h = Sim.Engine.every e ~interval:(Sim.Time.of_ms 10) (fun () -> incr ticks) in
        Sim.Engine.run ~until:(Sim.Time.of_ms 55) e;
        Alcotest.(check int) "5 ticks" 5 !ticks;
        Sim.Engine.cancel h;
        Sim.Engine.run ~until:(Sim.Time.of_ms 200) e;
        Alcotest.(check int) "no more" 5 !ticks);
    Alcotest.test_case "cancelling a periodic task from inside its callback" `Quick
      (fun () ->
        let e = Sim.Engine.create () in
        let ticks = ref 0 in
        let handle = ref None in
        let h =
          Sim.Engine.every e ~interval:(Sim.Time.of_ms 10) (fun () ->
              incr ticks;
              if !ticks = 3 then
                match !handle with Some h -> Sim.Engine.cancel h | None -> ())
        in
        handle := Some h;
        Sim.Engine.run ~until:(Sim.Time.of_sec 1.0) e;
        Alcotest.(check int) "stopped at 3" 3 !ticks);
    Alcotest.test_case "every with explicit start" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let times = ref [] in
        ignore
          (Sim.Engine.every e ~start:Sim.Time.zero ~interval:(Sim.Time.of_ms 40)
             (fun () -> times := Sim.Time.to_ns (Sim.Engine.now e) :: !times));
        Sim.Engine.run ~until:(Sim.Time.of_ms 100) e;
        Alcotest.(check (list int64)) "ticks at 0,40,80" [0L; 40_000_000L; 80_000_000L]
          (List.rev !times));
    Alcotest.test_case "max_events bounds work" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let fired = ref 0 in
        for _ = 1 to 10 do
          ignore (Sim.Engine.schedule_after e (Sim.Time.of_ms 1) (fun () -> incr fired))
        done;
        Sim.Engine.run ~max_events:4 e;
        Alcotest.(check int) "budget" 4 !fired);
    Alcotest.test_case "scheduling from within events" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let log = ref [] in
        ignore
          (Sim.Engine.schedule_at e (Sim.Time.of_ms 1) (fun () ->
               log := "outer" :: !log;
               ignore
                 (Sim.Engine.schedule_after e (Sim.Time.of_ms 1) (fun () ->
                      log := "inner" :: !log))));
        Sim.Engine.run e;
        Alcotest.(check (list string)) "nested" ["outer"; "inner"] (List.rev !log);
        Alcotest.(check int) "processed" 2 (Sim.Engine.events_processed e));
    Alcotest.test_case "pending counts live events" `Quick (fun () ->
        let e = Sim.Engine.create () in
        let h = Sim.Engine.schedule_after e (Sim.Time.of_ms 1) (fun () -> ()) in
        ignore (Sim.Engine.schedule_after e (Sim.Time.of_ms 2) (fun () -> ()));
        Alcotest.(check int) "two pending" 2 (Sim.Engine.pending e);
        Sim.Engine.cancel h;
        Sim.Engine.run e;
        Alcotest.(check int) "drained" 0 (Sim.Engine.pending e));
  ]

let alignment_properties =
  [
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"next_multiple is the least multiple >= t" ~count:300
         QCheck.(pair (1 -- 100_000) (0 -- 10_000_000))
         (fun (grid_us, t_ns) ->
           let grid = Sim.Time.of_us grid_us in
           let t = Sim.Time.of_ns (Int64.of_int t_ns) in
           let m = Sim.Time.next_multiple ~grid t in
           let g = Sim.Time.to_ns grid and m_ns = Sim.Time.to_ns m in
           Sim.Time.(m >= t)
           && Int64.rem m_ns g = 0L
           && Sim.Time.(Sim.Time.sub m t < grid)));
    Test_seed.to_alcotest
      (QCheck.Test.make ~name:"prev_multiple is the greatest multiple <= t" ~count:300
         QCheck.(pair (1 -- 100_000) (0 -- 10_000_000))
         (fun (grid_us, t_ns) ->
           let grid = Sim.Time.of_us grid_us in
           let t = Sim.Time.of_ns (Int64.of_int t_ns) in
           let m = Sim.Time.prev_multiple ~grid t in
           let g = Sim.Time.to_ns grid and m_ns = Sim.Time.to_ns m in
           Sim.Time.(m <= t)
           && Int64.rem m_ns g = 0L
           && Sim.Time.(Sim.Time.sub t m < grid)));
  ]

let rng_tests =
  [
    Alcotest.test_case "same seed, same stream" `Quick (fun () ->
        let a = Sim.Rng.create ~seed:7L and b = Sim.Rng.create ~seed:7L in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same" (Sim.Rng.int64 a) (Sim.Rng.int64 b)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Sim.Rng.create ~seed:1L and b = Sim.Rng.create ~seed:2L in
        Alcotest.(check bool) "differ" true (Sim.Rng.int64 a <> Sim.Rng.int64 b));
    Alcotest.test_case "int respects bound" `Quick (fun () ->
        let r = Sim.Rng.create ~seed:3L in
        for _ = 1 to 1000 do
          let v = Sim.Rng.int r 10 in
          Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
        done);
    Alcotest.test_case "float respects bound" `Quick (fun () ->
        let r = Sim.Rng.create ~seed:3L in
        for _ = 1 to 1000 do
          let v = Sim.Rng.float r 2.5 in
          Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
        done);
    Alcotest.test_case "split decouples streams" `Quick (fun () ->
        let a = Sim.Rng.create ~seed:5L in
        let b = Sim.Rng.split a in
        (* Drawing from b must not perturb a's own continuation. *)
        let a' = Sim.Rng.copy a in
        let _ = Sim.Rng.int64 b in
        Alcotest.(check int64) "a unchanged" (Sim.Rng.int64 a') (Sim.Rng.int64 a));
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let r = Sim.Rng.create ~seed:11L in
        let arr = Array.init 50 Fun.id in
        Sim.Rng.shuffle r arr;
        let sorted = Array.copy arr in
        Array.sort Int.compare sorted;
        Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted);
  ]

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let trace_tests =
  [
    Alcotest.test_case "emission order and filtering" `Quick (fun () ->
        let tr = Sim.Trace.create () in
        Sim.Trace.emit tr Sim.Time.zero ~category:"a" "one";
        Sim.Trace.emit tr (Sim.Time.of_ms 1) ~category:"b" "two";
        Sim.Trace.emit tr (Sim.Time.of_ms 2) ~category:"a" "three";
        Alcotest.(check int) "length" 3 (Sim.Trace.length tr);
        let cats = List.map (fun e -> e.Sim.Trace.message) (Sim.Trace.find tr ~category:"a") in
        Alcotest.(check (list string)) "find" ["one"; "three"] cats);
    Alcotest.test_case "disabled trace drops entries" `Quick (fun () ->
        let tr = Sim.Trace.create () in
        Sim.Trace.set_enabled tr false;
        Sim.Trace.emit tr Sim.Time.zero ~category:"x" "dropped";
        Sim.Trace.emitf tr Sim.Time.zero ~category:"x" "also %d" 1;
        Alcotest.(check int) "empty" 0 (Sim.Trace.length tr));
    Alcotest.test_case "clear" `Quick (fun () ->
        let tr = Sim.Trace.create () in
        Sim.Trace.emit tr Sim.Time.zero ~category:"x" "m";
        Sim.Trace.clear tr;
        Alcotest.(check int) "cleared" 0 (Sim.Trace.length tr));
    Alcotest.test_case "capacity_hint caps the ring, oldest entries drop" `Quick
      (fun () ->
        let tr = Sim.Trace.create ~capacity_hint:4 () in
        for i = 0 to 9 do
          Sim.Trace.emitf tr (Sim.Time.of_ms i) ~category:"x" "entry %d" i
        done;
        Alcotest.(check int) "retained" 4 (Sim.Trace.length tr);
        Alcotest.(check int) "total emitted" 10 (Sim.Trace.total tr);
        Alcotest.(check int) "dropped" 6 (Sim.Trace.dropped tr);
        Alcotest.(check (option int)) "capacity" (Some 4) (Sim.Trace.capacity tr);
        Alcotest.(check (list string)) "newest 4, insertion order"
          ["entry 6"; "entry 7"; "entry 8"; "entry 9"]
          (List.map (fun e -> e.Sim.Trace.message) (Sim.Trace.entries tr)));
    Alcotest.test_case "unbounded trace keeps everything in order" `Quick (fun () ->
        let tr = Sim.Trace.create () in
        for i = 0 to 99 do
          Sim.Trace.emitf tr (Sim.Time.of_ms i) ~category:"x" "e%d" i
        done;
        Alcotest.(check int) "all kept" 100 (Sim.Trace.length tr);
        Alcotest.(check int) "no drops" 0 (Sim.Trace.dropped tr);
        Alcotest.(check string) "first" "e0"
          (List.hd (Sim.Trace.entries tr)).Sim.Trace.message);
    Alcotest.test_case "structured events carry typed fields" `Quick (fun () ->
        let tr = Sim.Trace.create () in
        Sim.Trace.event tr Sim.Time.zero ~category:"bfd" "peer down"
          [Obs.Field.string "peer" "10.0.0.2"; Obs.Field.int "detect_ms" 120];
        let e = List.hd (Sim.Trace.entries tr) in
        Alcotest.(check int) "two fields" 2 (List.length e.Sim.Trace.fields);
        (match Obs.Field.find "detect_ms" e.Sim.Trace.fields with
        | Some (Obs.Field.Int 120) -> ()
        | _ -> Alcotest.fail "detect_ms field missing or wrong");
        let rendered = Fmt.str "%a" Sim.Trace.pp_entry e in
        Alcotest.(check bool) "fields rendered" true
          (contains_sub rendered "peer=10.0.0.2"));
    Alcotest.test_case "disabled emitf leaves str_formatter untouched" `Quick
      (fun () ->
        (* The old implementation routed the disabled branch through the
           shared [Format.str_formatter], corrupting any string being
           built there concurrently. *)
        let tr = Sim.Trace.create () in
        Sim.Trace.set_enabled tr false;
        Format.fprintf Format.str_formatter "untouched-";
        Sim.Trace.emitf tr Sim.Time.zero ~category:"x" "noise %d %s" 42 "z";
        Format.fprintf Format.str_formatter "suffix";
        Alcotest.(check string) "str_formatter intact" "untouched-suffix"
          (Format.flush_str_formatter ()));
  ]

let suite =
  [
    ("sim.time", time_tests);
    ("sim.heap", heap_tests);
    ("sim.engine", engine_tests);
    ("sim.alignment", alignment_properties);
    ("sim.rng", rng_tests);
    ("sim.trace", trace_tests);
  ]
