(* Whole-program index: per-file facts (module-level bindings, mutable
   globals, an approximate qualified-name reference graph, annotation
   sites) extracted from one shared parse, then resolved across files.

   Facts are deliberately plain data — strings, ints, diagnostics.
   Everything that needs more than one file (the reach walk,
   partial-application arities, inventory drift) happens at
   whole-program time over these facts. *)

open Parsetree
module SS = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Facts *)

type classification =
  | Atomic  (** [Atomic.make] — a declared process-wide counter *)
  | Domain_local of string  (** [[@@lint.domain_local "rationale"]] *)
  | Unguarded  (** module-level state with no justification — the error *)

let classification_to_string = function
  | Atomic -> "atomic"
  | Domain_local _ -> "domain-local"
  | Unguarded -> "unguarded"

type apply = { ap_path : string; ap_args : int; ap_line : int; ap_col : int }
(** An application inside a [[@@lint.zero_alloc]] body, kept raw so the
    whole-program stage can resolve the callee's arity. *)

type binding = {
  b_qname : string;  (** e.g. ["Obs.Metrics.default"] *)
  b_file : string;
  b_line : int;
  b_col : int;
  b_arity : int;  (** leading fun params; 0 = evaluated value *)
  b_has_labels : bool;  (** any labelled/optional param (arity unusable) *)
  b_refs : string list;  (** raw dotted paths referenced in the body *)
  b_mutable : (string * classification) option;
      (** kind ("ref", "hashtbl", ...) and classification when the RHS
          evaluates to mutable state at module initialisation *)
  b_reach_root : string option;  (** [[@@lint.reach_root]]: "fig5" or "check" *)
  b_zero_alloc : bool;
  b_applies : apply list;  (** only populated for zero-alloc bindings *)
}

type file_facts = {
  ff_file : string;
  ff_module : string;  (** wrapped module path, e.g. ["Obs.Metrics"] *)
  ff_library : string;  (** wrapping library module, e.g. ["Obs"] *)
  ff_diags : Diagnostic.t list;
      (** complete per-file findings (per-file rules + annotation and
          zero-alloc-body checks), suppression already applied *)
  ff_allows : Rules.allow list;  (** kept for whole-program-stage suppression *)
  ff_aliases : (string * string) list;
      (** top-level [module C = Supercharger.Controller] aliases, for
          reference resolution *)
  ff_bindings : binding list;
}

type t = {
  files : file_facts list;  (** sorted by path *)
  bindings : (string, binding) Hashtbl.t;  (** qname -> binding *)
  libraries : SS.t;  (** known wrapping library modules *)
}

(* ------------------------------------------------------------------ *)
(* Small helpers shared with Rules *)

let flatten lid = try Longident.flatten lid with _ -> []
let strip_stdlib = function "Stdlib" :: rest -> rest | path -> path
let path_str path = String.concat "." path

let has_suffix ~suffix s =
  let n = String.length suffix and m = String.length s in
  m >= n && String.sub s (m - n) n = suffix

let in_lib file = String.length file >= 4 && String.sub file 0 4 = "lib/"

let loc_pos (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* ------------------------------------------------------------------ *)
(* Module naming: lib/obs/metrics.ml inside library [Obs] is module
   [Obs.Metrics]. The library name comes from the directory's dune
   stanza when available, else from the directory basename. A file
   named like its library is the library root module itself. *)

let capitalize s = String.capitalize_ascii s

let library_of_dune src =
  (* Tiny scan for "(name <ident>)" — dune's own sexp is more liberal,
     but every stanza in this tree is exactly that shape. *)
  let n = String.length src in
  let rec find i =
    if i + 6 > n then None
    else if String.sub src i 5 = "(name" then
      let rec skip j = if j < n && (src.[j] = ' ' || src.[j] = '\n') then skip (j + 1) else j in
      let start = skip (i + 5) in
      let rec stop j =
        if j < n && src.[j] <> ')' && src.[j] <> ' ' && src.[j] <> '\n' then stop (j + 1) else j
      in
      let stop = stop start in
      if stop > start then Some (String.sub src start (stop - start)) else None
    else find (i + 1)
  in
  find 0

let library_name ~root file =
  let dir = Filename.dirname file in
  let dune = Filename.concat (Filename.concat root dir) "dune" in
  let from_dune =
    if Sys.file_exists dune then begin
      let ic = open_in_bin dune in
      let len = in_channel_length ic in
      let src = really_input_string ic len in
      close_in ic;
      library_of_dune src
    end
    else None
  in
  capitalize (match from_dune with Some n -> n | None -> Filename.basename dir)

let module_name ~library file =
  let base = capitalize (Filename.remove_extension (Filename.basename file)) in
  if String.equal base library then library else library ^ "." ^ base

(* ------------------------------------------------------------------ *)
(* Annotation payloads *)

let string_payload (attr : attribute) =
  match attr.attr_payload with
  | PStr [{ pstr_desc = Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _); _ }] ->
    Some s
  | _ -> None

let empty_payload (attr : attribute) =
  match attr.attr_payload with PStr [] -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Mutable-construction classifier.

   [kind_of_expr] answers: does evaluating this expression right now
   produce mutable state? It recurses through tuples, [Some], records
   (both mutable fields and mutable field values), [let] bodies, and
   one level of locally-defined constructor functions, so
   [let default = create ()] is seen through [create]. *)

let array_allocators =
  SS.of_list ["make"; "create"; "init"; "of_list"; "copy"; "append"; "concat"; "sub"; "make_matrix"; "create_float"]

let hashtbl_module m =
  m = "Hashtbl"
  ||
  let m = String.lowercase_ascii m in
  has_suffix ~suffix:"_table" m

type local_env = {
  le_mutable_fields : SS.t;  (** field names declared [mutable] in this file *)
  le_functions : (string, expression) Hashtbl.t;  (** local top-level fn bodies *)
}

let rec strip_params e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> strip_params body
  | Pexp_newtype (_, body) -> strip_params body
  | Pexp_constraint (body, _) -> strip_params body
  | _ -> e

let rec kind_of_expr env depth e =
  if depth > 4 then None
  else
    match e.pexp_desc with
    | Pexp_constraint (e, _) -> kind_of_expr env depth e
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; _ }; _ }, args) -> (
      let path = strip_stdlib (flatten lid) in
      match path with
      | ["ref"] -> Some ("ref", Unguarded)
      | ["Atomic"; "make"] -> Some ("atomic", Atomic)
      | [m; ("create" | "of_seq" | "copy")] when hashtbl_module m ->
        Some ("hashtbl", Unguarded)
      | ["Queue"; ("create" | "copy" | "of_seq")] -> Some ("queue", Unguarded)
      | ["Stack"; ("create" | "copy" | "of_seq")] -> Some ("stack", Unguarded)
      | ["Buffer"; "create"] -> Some ("buffer", Unguarded)
      | ["Bytes"; ("create" | "make" | "of_string" | "init" | "copy" | "sub")] ->
        Some ("bytes", Unguarded)
      | ["Array"; f] when SS.mem f array_allocators -> Some ("array", Unguarded)
      | [f] -> (
        (* A locally-defined constructor function: classify its body. *)
        match Hashtbl.find_opt env.le_functions f with
        | Some body -> kind_of_expr env (depth + 1) (strip_params body)
        | None -> None)
      | _ ->
        (* Unknown call: mutable state may still ride out through its
           arguments, e.g. [Option.value (Some (ref 0)) ...]. *)
        List.find_map (fun (_, a) -> kind_of_expr env (depth + 1) a) args)
    | Pexp_record (fields, base) ->
      let from_field (lid, value) =
        let mutable_field =
          match List.rev (flatten lid.Location.txt) with
          | f :: _ when SS.mem f env.le_mutable_fields ->
            Some ("mutable-record", Unguarded)
          | _ -> None
        in
        (match mutable_field with
        | Some _ as k -> k
        | None -> kind_of_expr env (depth + 1) value)
      in
      (match List.find_map from_field fields with
      | Some _ as k -> k
      | None -> Option.bind base (kind_of_expr env (depth + 1)))
    | Pexp_array (_ :: _) -> Some ("array", Unguarded)
    | Pexp_tuple es -> List.find_map (kind_of_expr env (depth + 1)) es
    | Pexp_construct (_, Some e) -> kind_of_expr env (depth + 1) e
    | Pexp_let (_, _, body) | Pexp_sequence (_, body) ->
      kind_of_expr env (depth + 1) body
    | Pexp_setfield _ -> None
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Reference collection: every dotted path mentioned in a body, raw.
   Resolution happens at whole-program time (see [resolve]). *)

let collect_refs e =
  let refs = ref SS.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = lid; _ } ->
            let path = strip_stdlib (flatten lid) in
            if path <> [] then refs := SS.add (path_str path) !refs
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  SS.elements !refs

(* ------------------------------------------------------------------ *)
(* Zero-alloc body analysis (the per-file half of hot-path-alloc).

   Conservative and shallow by design: the annotated body itself must
   not allocate per call — no closures, no tuple/record/array literals,
   no argument-carrying variant construction (reuse the matched value:
   the shared-[Some]-cell idiom), no [List] combinators, no formatting.
   Calls are trust boundaries: a callee either carries its own
   [[@@lint.zero_alloc]] or is a documented per-burst setup helper.
   Applications are recorded for the deferred partial-application
   check, which needs cross-file arities. *)

let allocator_modules = SS.of_list ["List"; "Printf"; "Format"; "Fmt"; "Seq"; "Buffer"; "String"]

let string_allocators = SS.of_list ["make"; "init"; "sub"; "concat"; "cat"; "map"; "mapi"; "split_on_char"; "to_bytes"; "of_bytes"; "uppercase_ascii"; "lowercase_ascii"; "capitalize_ascii"; "escaped"; "trim"]

let bytes_allocators = SS.of_list ["create"; "make"; "init"; "sub"; "copy"; "extend"; "cat"; "of_string"; "to_string"; "concat"]

let cold_path_heads = SS.of_list ["raise"; "raise_notrace"; "invalid_arg"; "failwith"; "assert"]

let alloc_reason path =
  match path with
  | [] -> None
  | [("^" | "@" | "^^")] -> Some "string/list concatenation allocates"
  | ["sprintf"] -> Some "sprintf allocates (and formats)"
  | ["String"; f] when SS.mem f string_allocators ->
    Some (Fmt.str "String.%s allocates a fresh string" f)
  | ["Bytes"; f] when SS.mem f bytes_allocators ->
    Some (Fmt.str "Bytes.%s allocates" f)
  | ["Array"; (("map" | "mapi" | "map2" | "to_list" | "of_list" | "init" | "make" | "create" | "append" | "concat" | "sub" | "copy" | "make_matrix" | "create_float" | "of_seq" | "to_seq" | "split" | "combine") as f)] ->
    Some (Fmt.str "Array.%s allocates a fresh array" f)
  | [m; ("create" | "of_seq")] when hashtbl_module m ->
    Some (Fmt.str "%s.create allocates" m)
  | ["ref"] -> Some "ref allocates a cell"
  | m :: _ when SS.mem m allocator_modules ->
    Some (Fmt.str "%s.* allocates (combinators build closures and cells)" m)
  | _ -> None

let check_zero_alloc ~report ~record_apply body =
  let rec visit e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ ->
      report e.pexp_loc "closure construction; hoist the helper to the top level";
      (* still scan inside for more findings *)
      Ast_iterator.default_iterator.expr shallow_it e
    | Pexp_tuple _ ->
      report e.pexp_loc "tuple allocation on the hot path";
      Ast_iterator.default_iterator.expr shallow_it e
    | Pexp_record _ ->
      report e.pexp_loc "record allocation on the hot path";
      Ast_iterator.default_iterator.expr shallow_it e
    | Pexp_array (_ :: _) ->
      report e.pexp_loc "array literal allocation on the hot path";
      Ast_iterator.default_iterator.expr shallow_it e
    | Pexp_lazy _ ->
      report e.pexp_loc "lazy suspension allocates";
      Ast_iterator.default_iterator.expr shallow_it e
    | Pexp_construct (_, Some _) ->
      report e.pexp_loc
        "argument-carrying construction; return the stored value instead \
         (shared-Some-cell idiom)";
      Ast_iterator.default_iterator.expr shallow_it e
    | Pexp_ident { txt = lid; _ } -> (
      match alloc_reason (strip_stdlib (flatten lid)) with
      | Some reason -> report e.pexp_loc reason
      | None -> ())
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; _ }; _ }, args) -> (
      let path = strip_stdlib (flatten lid) in
      match path with
      | [h] when SS.mem h cold_path_heads ->
        () (* divergence, not steady-state allocation: don't descend *)
      | _ ->
        (match alloc_reason path with
        | Some reason -> report e.pexp_loc reason
        | None ->
          let positional =
            List.length (List.filter (function Asttypes.Nolabel, _ -> true | _ -> false) args)
          in
          let line, col = loc_pos e.pexp_loc in
          record_apply
            { ap_path = path_str path; ap_args = positional; ap_line = line; ap_col = col });
        List.iter (fun (_, a) -> visit a) args)
    | Pexp_assert _ -> () (* cold path *)
    | _ -> Ast_iterator.default_iterator.expr shallow_it e
  and shallow_it =
    { Ast_iterator.default_iterator with expr = (fun _ e -> visit e) }
  in
  visit body

(* ------------------------------------------------------------------ *)
(* Per-file extraction *)

let rule_annotation = "lint-annotation"

let known_lint_attrs =
  SS.of_list ["lint.allow"; "lint.domain_local"; "lint.reach_root"; "lint.zero_alloc"]

let extract ~file ~library structure =
  let module_path = module_name ~library file in
  let diags = ref [] in
  let report ~loc ~rule fmt =
    Fmt.kstr
      (fun message ->
        let line, col = loc_pos loc in
        diags :=
          Diagnostic.v ~rule ~severity:Diagnostic.Error ~file ~line ~col message
          :: !diags)
      fmt
  in
  (* File-scoped env for the mutable classifier. *)
  let mutable_fields = ref SS.empty in
  let functions : (string, expression) Hashtbl.t = Hashtbl.create 32 in
  let scan_types_and_functions () =
    let it =
      {
        Ast_iterator.default_iterator with
        type_declaration =
          (fun it td ->
            (match td.ptype_kind with
            | Ptype_record labels ->
              List.iter
                (fun l ->
                  if l.pld_mutable = Asttypes.Mutable then
                    mutable_fields := SS.add l.pld_name.txt !mutable_fields)
                labels
            | _ -> ());
            Ast_iterator.default_iterator.type_declaration it td);
      }
    in
    it.structure it structure;
    let register_function vb =
      match vb.pvb_pat.ppat_desc with
      | Ppat_var { txt; _ } -> (
        match vb.pvb_expr.pexp_desc with
        | Pexp_fun _ | Pexp_newtype _ -> Hashtbl.replace functions txt vb.pvb_expr
        | _ -> ())
      | _ -> ()
    in
    List.iter
      (fun si ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) -> List.iter register_function vbs
        | _ -> ())
      structure
  in
  scan_types_and_functions ();
  let env = { le_mutable_fields = !mutable_fields; le_functions = functions } in
  (* Walk structure items, tracking the module path for submodules. *)
  let bindings = ref [] in
  let lib_file = in_lib file in
  let binding_of ~prefix vb name =
    let line, col = loc_pos vb.pvb_loc in
    let rec arity ?(labels = false) e =
      match e.pexp_desc with
      | Pexp_fun (lbl, _, _, body) ->
        let labels = labels || lbl <> Asttypes.Nolabel in
        let n, l = arity ~labels body in
        (n + 1, l)
      | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> arity ~labels body
      | _ -> (0, labels)
    in
    let n_params, has_labels = arity vb.pvb_expr in
    let body = strip_params vb.pvb_expr in
    let reach_root = ref None in
    let zero_alloc = ref false in
    let domain_local = ref None in
    List.iter
      (fun (attr : attribute) ->
        let txt = attr.attr_name.txt in
        let is_lint =
          String.length txt >= 5 && String.sub txt 0 5 = "lint."
        in
        if is_lint && not (SS.mem txt known_lint_attrs) then
          report ~loc:attr.attr_loc ~rule:rule_annotation
            "unknown lint annotation [@%s]; known: allow, domain_local, \
             reach_root, zero_alloc"
            txt
        else
          match txt with
          | "lint.domain_local" -> (
            match string_payload attr with
            | Some rationale when String.trim rationale <> "" ->
              domain_local := Some rationale
            | _ ->
              report ~loc:attr.attr_loc ~rule:rule_annotation
                "[@@lint.domain_local] requires a non-empty string rationale")
          | "lint.reach_root" -> (
            match string_payload attr with
            | Some (("fig5" | "check") as root) -> reach_root := Some root
            | _ ->
              report ~loc:attr.attr_loc ~rule:rule_annotation
                "[@@lint.reach_root] takes \"fig5\" or \"check\"")
          | "lint.zero_alloc" ->
            if empty_payload attr || Option.is_some (string_payload attr) then
              zero_alloc := true
            else
              report ~loc:attr.attr_loc ~rule:rule_annotation
                "[@lint.zero_alloc] takes no payload (or a string note)"
          | _ -> ())
      vb.pvb_attributes;
    let mutable_kind =
      if n_params > 0 then None
      else
        match kind_of_expr env 0 vb.pvb_expr with
        | None -> None
        | Some (kind, base_class) ->
          let classification =
            match base_class, !domain_local with
            | Atomic, _ -> Atomic
            | _, Some rationale -> Domain_local rationale
            | (Unguarded | Domain_local _), None -> Unguarded
          in
          Some (kind, classification)
    in
    let applies = ref [] in
    if !zero_alloc then
      check_zero_alloc
        ~report:(fun loc reason ->
          report ~loc ~rule:"hot-path-alloc" "%s" reason)
        ~record_apply:(fun ap -> applies := ap :: !applies)
        body;
    {
      b_qname = prefix ^ "." ^ name;
      b_file = file;
      b_line = line;
      b_col = col;
      b_arity = n_params;
      b_has_labels = has_labels;
      b_refs = collect_refs vb.pvb_expr;
      b_mutable = (if lib_file then mutable_kind else None);
      b_reach_root = !reach_root;
      b_zero_alloc = !zero_alloc;
      b_applies = List.rev !applies;
    }
  in
  let aliases = ref [] in
  let rec alias_target me =
    match me.pmod_desc with
    | Pmod_ident { txt = lid; _ } -> Some (path_str (flatten lid))
    | Pmod_constraint (me, _) -> alias_target me
    | _ -> None
  in
  let rec walk_items ~prefix items =
    List.iter
      (fun si ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt = name; _ } ->
                bindings := binding_of ~prefix vb name :: !bindings
              | _ -> ())
            vbs
        | Pstr_module { pmb_name = { txt = Some m; _ }; pmb_expr; _ } -> (
          match alias_target pmb_expr with
          | Some target -> aliases := (m, target) :: !aliases
          | None -> walk_module ~prefix:(prefix ^ "." ^ m) pmb_expr)
        | _ -> ())
      items
  and walk_module ~prefix me =
    match me.pmod_desc with
    | Pmod_structure items -> walk_items ~prefix items
    | Pmod_constraint (me, _) -> walk_module ~prefix me
    | _ -> ()
  in
  walk_items ~prefix:module_path structure;
  let rule_diags, allows = Rules.run_collect ~file structure in
  let own_diags =
    List.filter (fun d -> not (Rules.allow_covers allows d)) (List.rev !diags)
  in
  {
    ff_file = file;
    ff_module = module_path;
    ff_library = library;
    ff_diags = List.sort_uniq Diagnostic.compare (rule_diags @ own_diags);
    ff_allows = allows;
    ff_aliases = List.rev !aliases;
    ff_bindings = List.rev !bindings;
  }

(* ------------------------------------------------------------------ *)
(* Whole-program assembly and name resolution *)

let build files =
  let files = List.sort (fun a b -> String.compare a.ff_file b.ff_file) files in
  let bindings = Hashtbl.create 256 in
  let libraries = ref SS.empty in
  List.iter
    (fun ff ->
      libraries := SS.add ff.ff_library !libraries;
      List.iter
        (fun b ->
          if not (Hashtbl.mem bindings b.b_qname) then
            Hashtbl.add bindings b.b_qname b)
        ff.ff_bindings)
    files;
  { files; bindings; libraries = !libraries }

let find t qname = Hashtbl.find_opt t.bindings qname

(* Resolve a raw dotted path as seen from [ff] to an indexed qname:
   a local top-level name, a sibling module in the same library, or a
   fully-qualified [Lib.Module.value] path. Anything else (stdlib,
   external libraries, locals) resolves to nothing, which is the right
   conservative answer for reachability. *)
let resolve t ~(from : file_facts) raw =
  let segs = String.split_on_char '.' raw in
  let candidates =
    match segs with
    | [] -> []
    | [leaf] -> [from.ff_module ^ "." ^ leaf]
    | first :: rest ->
      let expanded =
        (* [module Prov = Supercharger.Provisioner] in the referencing
           file: [Prov.create] means [Supercharger.Provisioner.create] *)
        match List.assoc_opt first from.ff_aliases with
        | Some target -> [String.concat "." (target :: rest)]
        | None -> []
      in
      let sibling = from.ff_library ^ "." ^ raw in
      expanded @ [sibling; raw]
  in
  List.find_opt (Hashtbl.mem t.bindings) candidates

let facts_for t file = List.find_opt (fun ff -> ff.ff_file = file) t.files

(* Everything reachable from [roots] over resolved references, roots
   included. A depth-first walk: each binding's raw references resolve
   from its own file. *)
let reachable t roots =
  let rec visit seen = function
    | [] -> seen
    | q :: rest when SS.mem q seen -> visit seen rest
    | q :: rest ->
      let callees =
        match find t q with
        | None -> []
        | Some b -> (
          match facts_for t b.b_file with
          | Some ff -> List.filter_map (resolve t ~from:ff) b.b_refs
          | None -> [])
      in
      visit (SS.add q seen) (callees @ rest)
  in
  visit SS.empty roots

let globals t =
  List.concat_map
    (fun ff ->
      List.filter_map (fun b -> Option.map (fun m -> (b, m)) b.b_mutable) ff.ff_bindings)
    t.files
