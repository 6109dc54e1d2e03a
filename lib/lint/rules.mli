(** The lint rules: one [Ast_iterator] pass over a parsed implementation.

    Rules enforced (all [Error] severity):

    - {b no-ambient-nondeterminism} — [Random.*], [Unix.gettimeofday],
      [Sys.time], [Hashtbl.hash] and friends are forbidden in [lib/]
      outside [Sim.Rng] and [Sim.Time]. Replay determinism (seeded
      fault schedules, the differential checker) dies the moment
      ambient entropy leaks into the simulation.
    - {b no-polymorphic-compare} — bare [compare] / [Stdlib.compare],
      and [=] / [<>] / [List.mem] / [List.assoc] applied to values that
      syntactically look like abstract net/BGP types ([Prefix.t],
      [Ipv4.t], [Mac.t], [Asn.t], attribute records, prefix lists).
      Use the owning module's [equal] / [compare]. A file that defines
      its own top-level [compare]/[equal] may reference it bare.
    - {b ordered-hashtbl-escape} — [Hashtbl.fold]/[iter] (including the
      [Ip_table]/[Mac_table] functor instances) inside an emitting
      function (JSON export, trace lines, printed reports) with no sort
      in the enclosing bindings. Hash iteration order is not part of
      the output contract.
    - {b no-catch-all-on-events} — an unguarded [_] branch in a match
      that also names constructors of the closed event / fault /
      OpenFlow-message variants. New constructors must force a
      compile-time review, not vanish into a wildcard.
    - {b fast-path-purity} — [failwith] / [exit] / [assert false] in
      the controller fast path ([Controller], [Provisioner], [Switch]).
      The fast path degrades; it does not abort.

    Suppression: annotate the smallest enclosing expression or binding
    with [[@lint.allow "<rule>"]] (several rules: a tuple of strings;
    ["all"] silences everything), or a whole file with
    [[@@@lint.allow "<rule>"]]. *)

val rule_ids : string list
(** Every rule id this pass can emit, sorted. *)

type allow = { a_rules : string list; a_from : int; a_to : int }
(** One [[@lint.allow]] range: the named rules are suppressed on lines
    [a_from]..[a_to] inclusive ([a_to = max_int] for a whole-file
    [[@@@lint.allow]]). *)

val allow_covers : allow list -> Diagnostic.t -> bool
(** Does any recorded allow range suppress this diagnostic? Shared with
    the whole-program passes ({!Index}), which produce diagnostics long
    after the per-file iterator ran. *)

val run_collect :
  file:string -> Parsetree.structure -> Diagnostic.t list * allow list
(** [run_collect ~file ast] returns the diagnostics for one parsed
    file, with [[@lint.allow]]-suppressed findings already removed,
    sorted per {!Diagnostic.compare}, and the [[@lint.allow]] ranges
    collected on the way, so the whole-program passes layered on top
    apply the same suppression. [file] should be root-relative with
    ['/'] separators — rule scoping ([lib/] vs [bin/], the [Sim.Rng]
    exemption, fast-path files) keys off it. *)
