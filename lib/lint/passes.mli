(** The three whole-program passes over {!Index.t}.

    - {b no-shared-mutable-global} — every module-level mutable value
      in [lib/] must be [Atomic], a [Mutex.t], [[@@lint.guarded_by]] a
      validated sibling mutex, or carry a justified
      [[@@lint.domain_local]]. Anything else is an error: it races the
      moment the checker domain pool puts checker schedules, or BGP
      sessions, on separate domains.
    - {b cross-domain-unsafe} — from each [[@@lint.domain_entry]]
      binding, walk the approximate call graph; flag any reachable
      unguarded mutable global or ambient-nondeterminism site, with the
      call chain in the message. Findings land on the entry binding —
      the entry owns its domain contract, so suppression goes there.
    - {b hot-path-alloc} (cross-file half) — inside
      [[@@lint.zero_alloc]] bodies, applying an indexed function with
      fewer positional arguments than its arity allocates a closure.
      The per-file half (closures, tuple/record/variant construction,
      [List] combinators, formatting) runs in {!Index.extract}.

    All passes walk plain facts, never ASTs, so they are cheap. *)

val rule_shared : string
val rule_cross : string
val rule_alloc : string

val rule_ids : string list
(** The whole-program rule ids, sorted. *)

val run : ?only:string list -> ?except:string list -> Index.t -> Diagnostic.t list
(** Run the selected passes (default: all), apply [[@lint.allow]]
    suppression, and return the findings sorted per
    {!Diagnostic.compare}. *)
