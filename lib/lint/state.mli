(** The committed lint inventory ([LINT_STATE.json], schema
    [lint/state-v2]).

    Two halves:
    - one entry per module-level mutable value in [lib/], sorted by
      qualified name, with its kind, classification and, for a
      domain-local, its rationale;
    - the reach diff: the sorted [lib/] names reachable from the
      [[@@lint.reach_root "fig5"]] root and from no
      [[@@lint.reach_root "check"]] root, and the reverse. [lib/check/]
      is left out of both.

    Locations are omitted so unrelated edits never churn the file, and
    every list element is on its own line, so a diff in review names
    the global that appeared or the component a checker started (or
    stopped) running. CI regenerates the inventory and fails on
    divergence. *)

val schema : string

type entry = {
  qname : string;
  file : string;
  kind : string;
  classification : Index.classification;
}

val entries : Index.t -> entry list
(** Sorted by [qname]. *)

val unguarded : entry list -> int

type reach = { fig5_only : string list; checker_only : string list }

val reach : Index.t -> reach
(** Both sets, sorted. *)

val render : Index.t -> string
(** The exact bytes of a fresh LINT_STATE.json (newline-terminated). *)

type drift = Fresh_matches | Missing_committed | Diverged

val check : committed_path:string -> Index.t -> drift
(** Byte-compare the committed inventory against a fresh render. *)

val write : path:string -> Index.t -> unit
