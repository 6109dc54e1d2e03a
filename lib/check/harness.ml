type 'sched failure = {
  schedule : 'sched;
  shrunk : 'sched;
  violations : string list;
  reproduce : string;
}

let pp_failure ~pp ~length ppf f =
  Fmt.pf ppf "failing %a" pp f.schedule;
  Fmt.pf ppf "shrunk to %d events: %a" (length f.shrunk) pp f.shrunk;
  Fmt.pf ppf "violations:@.";
  List.iter (fun v -> Fmt.pf ppf "  - %s@." v) f.violations;
  Fmt.pf ppf "reproduce: %s@." f.reproduce

let run_matrix ~schedules ~generate ~execute ~steps ~with_steps ~reproduce ~progress =
  let rec go i =
    if i >= schedules then None
    else begin
      progress i;
      let schedule = generate i in
      match execute schedule with
      | [] -> go (i + 1)
      | _ :: _ ->
        let fails s = execute (with_steps schedule s) <> [] in
        let shrunk = with_steps schedule (Shrink.list ~fails (steps schedule)) in
        (* Non-empty: the shrinker only keeps candidates that still fail. *)
        let violations = execute shrunk in
        Some { schedule; shrunk; violations; reproduce = reproduce i schedule }
    end
  in
  go 0
