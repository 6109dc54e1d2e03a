(* The two whole-program passes over {!Index.t}. These run after every
   file's facts exist and are cheap: they walk plain data, never
   ASTs. *)

let rule_shared = "no-shared-mutable-global"
let rule_alloc = "hot-path-alloc"
let rule_ids = List.sort String.compare [rule_shared; rule_alloc]

let error ~rule ~file ~line ~col fmt =
  Fmt.kstr
    (fun message ->
      Diagnostic.v ~rule ~severity:Diagnostic.Error ~file ~line ~col message)
    fmt

(* ------------------------------------------------------------------ *)
(* Pass (a): no-shared-mutable-global.

   One process runs many schedules (a checker matrix, a sweep), so
   module-level state outlives the run that wrote it and leaks into the
   next, and a [reproduce:] line no longer replays what failed. Every
   module-level mutable value in [lib/] is therefore [Atomic.make] (a
   declared counter) or carries a justified [[@@lint.domain_local]]. *)

let shared_mutable (t : Index.t) =
  List.filter_map
    (fun ((b : Index.binding), (kind, cls)) ->
      match cls with
      | Index.Unguarded ->
        Some
          (error ~rule:rule_shared ~file:b.Index.b_file ~line:b.Index.b_line
             ~col:b.Index.b_col
             "module-level mutable %s `%s` outlives one run and leaks into \
              the next schedule; make it per-run state, an Atomic counter, or \
              justify it with [@@lint.domain_local \"...\"]"
             kind b.Index.b_qname)
      | Index.Atomic | Index.Domain_local _ -> None)
    (Index.globals t)

(* ------------------------------------------------------------------ *)
(* Pass (b): the cross-file half of hot-path-alloc.

   The per-file half (Index.check_zero_alloc) already flagged closures,
   tuple/record construction, [List] combinators and formatting inside
   [[@@lint.zero_alloc]] bodies. What it could not see is arity:
   applying an indexed function with fewer positional arguments than it
   takes allocates a closure. Callees with labelled or optional
   parameters are skipped — syntactic arity is meaningless there. *)

let hot_path_partial (t : Index.t) =
  List.concat_map
    (fun (ff : Index.file_facts) ->
      List.concat_map
        (fun (b : Index.binding) ->
          if not b.Index.b_zero_alloc then []
          else
            List.filter_map
              (fun (ap : Index.apply) ->
                match Index.resolve t ~from:ff ap.Index.ap_path with
                | Some callee_q -> (
                  match Index.find t callee_q with
                  | Some callee
                    when callee.Index.b_arity > 0
                         && (not callee.Index.b_has_labels)
                         && ap.Index.ap_args < callee.Index.b_arity ->
                    Some
                      (error ~rule:rule_alloc ~file:b.Index.b_file
                         ~line:ap.Index.ap_line ~col:ap.Index.ap_col
                         "partial application of %s (%d of %d arguments) \
                          allocates a closure on the hot path"
                         callee_q ap.Index.ap_args callee.Index.b_arity)
                  | _ -> None)
                | None -> None)
              b.Index.b_applies)
        ff.Index.ff_bindings)
    t.Index.files

(* Suppression is uniform: a finding lands on some line of some file;
   any [[@lint.allow]] range in that file covering that line (with the
   rule named) silences it. *)
let suppressed_in t (d : Diagnostic.t) =
  match Index.facts_for t d.Diagnostic.file with
  | Some ff -> Rules.allow_covers ff.Index.ff_allows d
  | None -> false

let run ?(only : string list option) ?(except : string list = []) t =
  let selected rule =
    (match only with None -> true | Some rs -> List.mem rule rs)
    && not (List.mem rule except)
  in
  let maybe rule pass = if selected rule then pass t else [] in
  maybe rule_shared shared_mutable @ maybe rule_alloc hot_path_partial
  |> List.filter (fun d -> not (suppressed_in t d))
  |> List.sort_uniq Diagnostic.compare
