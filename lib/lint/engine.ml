let rule_parse = "parse-error"
let rule_mli = "missing-mli"

let all_rule_ids =
  Rules.rule_ids @ Passes.rule_ids
  @ ["lint-allow"; Index.rule_annotation; rule_mli; rule_parse]
  |> List.sort_uniq String.compare

let parse_error_diag ~file exn =
  Diagnostic.v ~rule:rule_parse ~severity:Diagnostic.Error ~file ~line:1 ~col:0
    (Fmt.str "could not parse: %s" (Printexc.to_string exn))

(* A parse failure still yields facts — empty ones carrying the
   diagnostic — so the index stays total over the file list. *)
let failed_facts ~file ~library exn =
  {
    Index.ff_file = file;
    ff_module = Index.module_name ~library file;
    ff_library = library;
    ff_diags = [parse_error_diag ~file exn];
    ff_allows = [];
    ff_aliases = [];
    ff_bindings = [];
  }

(* Each file is parsed exactly once; [Index.extract] runs the per-file
   rules and the fact extraction over that one AST. *)
let facts_of_source ~file src =
  let library = Index.library_name ~root:"." file in
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | structure -> Index.extract ~file ~library structure
  | exception exn -> failed_facts ~file ~library exn

let facts_of_file ~root path =
  let full = Filename.concat root path in
  let library = Index.library_name ~root path in
  match Pparse.parse_implementation ~tool_name:"sc_lint" full with
  | structure -> Index.extract ~file:path ~library structure
  | exception exn -> failed_facts ~file:path ~library exn

type report = {
  files : int;
  diagnostics : Diagnostic.t list;
  index : Index.t;
}

let count severity r =
  List.length
    (List.filter (fun d -> d.Diagnostic.severity = severity) r.diagnostics)

let errors = count Diagnostic.Error
let warnings = count Diagnostic.Warning

let has_parse_errors r =
  List.exists (fun d -> d.Diagnostic.rule = rule_parse) r.diagnostics

(* Rule selection: [only]/[except] filter every rule uniformly except
   [parse-error], which always surfaces — a tree that does not parse
   cannot honestly report anything else. *)
let selected ?only ?(except = []) rule =
  rule = rule_parse
  || ((match only with None -> true | Some rs -> List.mem rule rs)
     && not (List.mem rule except))

let assemble ?only ?except facts =
  let index = Index.build facts in
  let per_file = List.concat_map (fun ff -> ff.Index.ff_diags) index.Index.files in
  let whole_program = Passes.run ?only ?except index in
  let diagnostics =
    per_file @ whole_program
    |> List.filter (fun d -> selected ?only ?except d.Diagnostic.rule)
    |> List.sort_uniq Diagnostic.compare
  in
  { files = List.length facts; diagnostics; index }

let lint_sources ?only ?except sources =
  let facts = List.map (fun (file, src) -> facts_of_source ~file src) sources in
  assemble ?only ?except facts

let lint_source ~file src = (lint_sources [(file, src)]).diagnostics

let lint_file ?(root = ".") path =
  (assemble [facts_of_file ~root path]).diagnostics

(* Deterministic recursive listing: relative paths, '/' separators,
   sorted at every level; _build and hidden entries skipped. *)
let rec walk root rel acc =
  let full = if rel = "" then root else Filename.concat root rel in
  let base = Filename.basename full in
  let hidden = rel <> "" && String.length base > 0 && base.[0] = '.' in
  if not (Sys.file_exists full) then acc
  else if Sys.is_directory full then
    if base = "_build" || hidden then acc
    else
      Array.to_list (Sys.readdir full)
      |> List.sort String.compare
      |> List.fold_left
           (fun acc entry ->
             let rel = if rel = "" then entry else rel ^ "/" ^ entry in
             walk root rel acc)
           acc
  else if Filename.check_suffix rel ".ml" then rel :: acc
  else acc

let ml_files root dirs =
  List.concat_map (fun d -> List.rev (walk root d [])) dirs

let missing_mli root files =
  List.filter_map
    (fun f ->
      if
        String.length f >= 4
        && String.sub f 0 4 = "lib/"
        && not (Sys.file_exists (Filename.concat root (Filename.remove_extension f ^ ".mli")))
      then
        Some
          (Diagnostic.v ~rule:rule_mli ~severity:Diagnostic.Warning ~file:f
             ~line:1 ~col:0
             "module has no .mli; every lib/ module publishes an explicit \
              interface")
      else None)
    files

let scan_tree ?(dirs = ["lib"; "bin"]) ?only ?except root =
  let files = ml_files root dirs in
  let r = assemble ?only ?except (List.map (facts_of_file ~root) files) in
  let mli =
    List.filter
      (fun d -> selected ?only ?except d.Diagnostic.rule)
      (missing_mli root files)
  in
  {
    r with
    diagnostics = List.sort Diagnostic.compare (r.diagnostics @ mli);
  }

let to_json r =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "lint/v3");
      ("files", Obs.Json.Int r.files);
      ("errors", Obs.Json.Int (errors r));
      ("warnings", Obs.Json.Int (warnings r));
      ("diagnostics", Obs.Json.List (List.map Diagnostic.to_json r.diagnostics));
    ]

let pp_report ppf r =
  List.iter (fun d -> Fmt.pf ppf "%a@." Diagnostic.pp d) r.diagnostics;
  Fmt.pf ppf "%d files linted: %d errors, %d warnings@." r.files (errors r)
    (warnings r)
