(* LINT_STATE.json: the committed, CI-diffed inventory of module-level
   mutable state in [lib/].

   The file is the review gate for the multicore runway: adding a shared
   mutable global changes this file, the CI drift check fails, and the
   diff in review shows exactly which global appeared and under which
   discipline. Locations are deliberately omitted — moving a binding a
   few lines must not churn the inventory. *)

let schema = "lint/state-v1"

type entry = {
  qname : string;
  file : string;
  kind : string;  (** "ref", "hashtbl", "atomic", ... *)
  classification : Index.classification;
}

let entries (t : Index.t) =
  Index.globals t
  |> List.map (fun (_ff, (b : Index.binding), (kind, cls)) ->
         { qname = b.Index.b_qname; file = b.Index.b_file; kind; classification = cls })
  |> List.sort (fun a b -> String.compare a.qname b.qname)

let unguarded es =
  List.length (List.filter (fun e -> e.classification = Index.Unguarded) es)

let entry_json e =
  let base =
    [
      ("qname", Obs.Json.String e.qname);
      ("file", Obs.Json.String e.file);
      ("kind", Obs.Json.String e.kind);
      ("class", Obs.Json.String (Index.classification_to_string e.classification));
    ]
  in
  let extra =
    match e.classification with
    | Index.Domain_local rationale -> [("rationale", Obs.Json.String rationale)]
    | Index.Mutex_guarded m -> [("guard", Obs.Json.String m)]
    | Index.Atomic | Index.Mutex_guard | Index.Unguarded -> []
  in
  Obs.Json.Obj (base @ extra)

let to_json t =
  let es = entries t in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String schema);
      ("globals", Obs.Json.Int (List.length es));
      ("unguarded", Obs.Json.Int (unguarded es));
      ("inventory", Obs.Json.List (List.map entry_json es));
    ]

let render t = Obs.Json.to_string (to_json t) ^ "\n"

type drift = Fresh_matches | Missing_committed | Diverged

(* Obs.Json is emit-only (no parser), so drift is byte comparison of
   the deterministic render — which is also exactly what git diff shows
   the reviewer. *)
let check ~committed_path t =
  if not (Sys.file_exists committed_path) then Missing_committed
  else begin
    let ic = open_in_bin committed_path in
    let len = in_channel_length ic in
    let committed = really_input_string ic len in
    close_in ic;
    if String.equal committed (render t) then Fresh_matches else Diverged
  end

let write ~path t =
  let oc = open_out_bin path in
  output_string oc (render t);
  close_out oc
