(* BENCHMARK.json: the workloads, and each metric's unit, direction and
   (end-to-end only) the bound by which it may worsen. *)

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float option;
}

type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let load path =
  let j = Pjson.of_file path in
  let metric m =
    {
      name = Pjson.to_str (Pjson.field "name" m);
      unit_ = Pjson.to_str (Pjson.field "unit" m);
      lower_is_better =
        (match Pjson.to_str (Pjson.field "better" m) with
        | "lower" -> true
        | "higher" -> false
        | other -> raise (Pjson.Parse_error ("better must be lower or higher, not " ^ other)));
      bound = Option.map Pjson.to_num (Pjson.member "bound" m);
    }
  in
  let metrics key = List.map metric (Pjson.to_list (Pjson.field key j)) in
  {
    workloads =
      List.map (fun w -> Pjson.to_str (Pjson.field "name" w)) (Pjson.to_list (Pjson.field "workloads" j));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

let find t name = List.find_opt (fun m -> m.name = name) (t.end_to_end @ t.per_layer)
