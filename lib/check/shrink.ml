(* Remove [size] events starting at index [i]. *)
let without events i size = List.filteri (fun j _ -> j < i || j >= i + size) events

(* Sweep chunk removals at halving granularity; at size 1, keep sweeping
   until a full pass removes nothing. Every candidate is re-executed
   through [fails], so monotonic shrinking terminates. *)
let list ~fails events =
  if not (fails events) then events
  else begin
    let current = ref events in
    let size = ref (max 1 (List.length events / 2)) in
    let continue_ = ref true in
    while !continue_ do
      let removed_any = ref false in
      let i = ref 0 in
      while !i < List.length !current do
        let cand = without !current !i !size in
        if fails cand then begin
          current := cand;
          removed_any := true
          (* same index now holds the next chunk *)
        end
        else i := !i + !size
      done;
      if !size > 1 then size := !size / 2
      else if not !removed_any then continue_ := false
    done;
    !current
  end
