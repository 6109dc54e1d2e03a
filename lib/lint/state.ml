(* LINT_STATE.json: the committed, CI-diffed inventory of module-level
   mutable state in [lib/], and of how far the differential checkers
   are from the code the Fig. 5 lab runs.

   Adding a mutable global or moving a checker onto (or off) a Fig. 5
   component changes this file, the CI drift check fails, and the diff
   in review shows which name appeared or vanished: one entry and one
   name per line. Locations are deliberately omitted — moving a binding
   a few lines must not churn the inventory. *)

module SS = Set.Make (String)

let schema = "lint/state-v2"

type entry = {
  qname : string;
  file : string;
  kind : string;  (** "ref", "hashtbl", "atomic", ... *)
  classification : Index.classification;
}

let entries (t : Index.t) =
  Index.globals t
  |> List.map (fun ((b : Index.binding), (kind, cls)) ->
         { qname = b.Index.b_qname; file = b.Index.b_file; kind; classification = cls })
  |> List.sort (fun a b -> String.compare a.qname b.qname)

let unguarded es =
  List.length (List.filter (fun e -> e.classification = Index.Unguarded) es)

type reach = { fig5_only : string list; checker_only : string list }

(* The [lib/] names reachable from every root of one kind, less
   [lib/check/]: the checkers' own code is checker-only by definition. *)
let reached (t : Index.t) root =
  let roots =
    Hashtbl.fold
      (fun q (b : Index.binding) acc ->
        if b.Index.b_reach_root = Some root then q :: acc else acc)
      t.Index.bindings []
  in
  SS.filter
    (fun q ->
      match Index.find t q with
      | Some b ->
        String.starts_with ~prefix:"lib/" b.Index.b_file
        && not (String.starts_with ~prefix:"lib/check/" b.Index.b_file)
      | None -> false)
    (Index.reachable t roots)

let reach t =
  let fig5 = reached t "fig5" and check = reached t "check" in
  { fig5_only = SS.elements (SS.diff fig5 check); checker_only = SS.elements (SS.diff check fig5) }

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
    | Index.Atomic | Index.Unguarded -> []
  in
  Obs.Json.Obj (base @ extra)

let names l = Obs.Json.List (List.map (fun n -> Obs.Json.String n) l)

(* Obs.Json prints compactly; the inventory is laid out by hand so that
   every list element sits on a line of its own and [git diff] names
   the entry that moved. *)
let render t =
  let es = entries t and r = reach t in
  let member (key, value) =
    let key = Obs.Json.to_string (Obs.Json.String key) in
    match value with
    | Obs.Json.List (_ :: _ as items) ->
      Fmt.str "  %s: [\n%s\n  ]" key
        (String.concat ",\n" (List.map (fun i -> "    " ^ Obs.Json.to_string i) items))
    | v -> Fmt.str "  %s: %s" key (Obs.Json.to_string v)
  in
  "{\n"
  ^ String.concat ",\n"
      (List.map member
         [
           ("schema", Obs.Json.String schema);
           ("globals", Obs.Json.Int (List.length es));
           ("unguarded", Obs.Json.Int (unguarded es));
           ("inventory", Obs.Json.List (List.map entry_json es));
           ("fig5_only", names r.fig5_only);
           ("checker_only", names r.checker_only);
         ])
  ^ "\n}\n"

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
