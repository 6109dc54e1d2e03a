(** The two whole-program passes over {!Index.t}.

    - {b no-shared-mutable-global} — every module-level mutable value
      in [lib/] must be [Atomic] or carry a justified
      [[@@lint.domain_local]]. Anything else is an error: one process
      runs many schedules, so module-level state leaks from one run
      into the next and breaks [reproduce:] replays.
    - {b hot-path-alloc} (cross-file half) — inside
      [[@@lint.zero_alloc]] bodies, applying an indexed function with
      fewer positional arguments than its arity allocates a closure.
      The per-file half (closures, tuple/record/variant construction,
      [List] combinators, formatting) runs in {!Index.extract}.

    Both passes walk plain facts, never ASTs, so they are cheap. *)

val rule_ids : string list
(** The whole-program rule ids, sorted. *)

val run : ?only:string list -> ?except:string list -> Index.t -> Diagnostic.t list
(** Run the selected passes (default: all), apply [[@lint.allow]]
    suppression, and return the findings sorted per
    {!Diagnostic.compare}. *)
