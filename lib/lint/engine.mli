(** Driving the lint pass: parsing, whole-program assembly, reports.

    Parsing uses the compiler's own front end ([Pparse] for on-disk
    files, [Parse] for in-memory fixtures), so anything the compiler
    accepts, the linter accepts — no new dependency and no second
    grammar. Fixtures only need to parse, not typecheck.

    Each file is parsed {e exactly once}: {!Index.extract} runs the
    per-file rules and the whole-program fact extraction over the same
    AST, and the {!Passes} stage works from facts alone. *)

val rule_parse : string
val rule_mli : string

val all_rule_ids : string list
(** Every rule id the linter can emit (per-file, whole-program,
    annotation, infrastructure), sorted — the vocabulary for
    [--only]/[--except] validation. *)

type report = {
  files : int;  (** implementation files linted *)
  diagnostics : Diagnostic.t list;  (** sorted, suppressions removed *)
  index : Index.t;  (** for the inventory ({!State}) *)
}

val errors : report -> int
val warnings : report -> int

val has_parse_errors : report -> bool
(** Distinguishes "the tree has findings" from "the tree could not even
    be read" for the exit-code table. *)

val lint_source : file:string -> string -> Diagnostic.t list
(** [lint_source ~file src] lints an in-memory implementation,
    including the whole-program passes over that single file. [file] is
    the pretend path used for rule scoping (e.g.
    ["lib/core/controller.ml"]). A syntax error yields a single
    [parse-error] diagnostic rather than an exception. *)

val lint_sources :
  ?only:string list -> ?except:string list -> (string * string) list -> report
(** Multi-file in-memory lint: the files share one index, so fixtures
    can exercise cross-module reachability and partial-application
    checks. *)

val lint_file : ?root:string -> string -> Diagnostic.t list
(** [lint_file ?root path] lints [root]/[path] ([root] defaults to
    ["."]). Diagnostics carry [path] as their file. *)

val scan_tree :
  ?dirs:string list ->
  ?only:string list ->
  ?except:string list ->
  string ->
  report
(** [scan_tree root] lints every [*.ml] under [root]/[dirs] (default
    [["lib"; "bin"]], recursively, in sorted order), runs the
    whole-program passes, and additionally reports a warning-level
    [missing-mli] diagnostic for any [lib/] module without an
    interface file. [?only]/[?except] select rules by id;
    [parse-error] always surfaces. *)

val to_json : report -> Obs.Json.t
(** Schema [lint/v3]: counts plus the sorted diagnostic list —
    byte-stable across runs. *)

val pp_report : Format.formatter -> report -> unit
(** Every diagnostic, one per line, then a one-line summary. *)
