open Parsetree
module SS = Set.Make (String)

let rule_nondet = "no-ambient-nondeterminism"
let rule_polycmp = "no-polymorphic-compare"
let rule_hashtbl = "ordered-hashtbl-escape"
let rule_catch_all = "no-catch-all-on-events"
let rule_purity = "fast-path-purity"
let rule_allow = "lint-allow"

let rule_ids =
  [rule_catch_all; rule_polycmp; rule_nondet; rule_hashtbl; rule_purity]
  |> List.sort String.compare

(* ------------------------------------------------------------------ *)
(* Pass state *)

type allow = { a_rules : string list; a_from : int; a_to : int }

(* One frame per enclosing value binding; rule 3 looks at the whole
   stack, so a fold in a helper [let] inside [to_json] is still seen as
   flowing into emitted output. *)
type frame = { f_emit : bool; f_sorted : bool }

type t = {
  file : string;
  in_lib : bool;
  nondet_exempt : bool;  (* Sim.Rng / Sim.Time themselves *)
  fast_path : bool;
  mutable local_defs : SS.t;  (* compare/equal/hash defined in this file *)
  mutable allows : allow list;
  mutable diags : Diagnostic.t list;
  mutable frames : frame list;
}

let report t ~loc ~rule ~severity fmt =
  Fmt.kstr
    (fun message ->
      let p = loc.Location.loc_start in
      t.diags <-
        Diagnostic.v ~rule ~severity ~file:t.file ~line:p.Lexing.pos_lnum
          ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
          message
        :: t.diags)
    fmt

let error t ~loc ~rule fmt = report t ~loc ~rule ~severity:Diagnostic.Error fmt

(* ------------------------------------------------------------------ *)
(* Longident helpers *)

let flatten lid = try Longident.flatten lid with _ -> []
let strip_stdlib = function "Stdlib" :: rest -> rest | path -> path
let path_str lid = String.concat "." (flatten lid)

let last_segment name =
  match String.rindex_opt name '_' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

(* ------------------------------------------------------------------ *)
(* Rule 2: what "smells like" an abstract net/BGP value. Parsetree-only
   analysis cannot resolve types, so this is a syntactic approximation
   tuned to this tree's naming conventions. *)

let net_value_names =
  SS.of_list
    [
      "prefix"; "pfx"; "nexthop"; "next_hop"; "nh"; "mac"; "vmac"; "vnh";
      "asn"; "attr"; "attrs"; "withdrawn"; "nlri"; "route";
    ]

let net_modules =
  SS.of_list ["Prefix"; "Ipv4"; "Mac"; "Asn"; "Attributes"; "Route"; "Lpm"]

let net_name n = SS.mem n net_value_names || SS.mem (last_segment n) net_value_names

(* [Ipv4.to_int32 x] and friends return plain scalars; comparing those
   is fine. *)
let scalar_accessor f =
  let has_prefix p =
    String.length f >= String.length p && String.sub f 0 (String.length p) = p
  in
  has_prefix "to_" || has_prefix "is_" || has_prefix "pp" || f = "length"
  || f = "size" || f = "mem"

let under_net_module rev_path =
  match rev_path with
  | f :: modules ->
    List.exists (fun m -> SS.mem m net_modules) modules
    && not (scalar_accessor f)
  | [] -> false

let rec smells_net e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } -> net_name n
  | Pexp_ident { txt = lid; _ } ->
    under_net_module (List.rev (strip_stdlib (flatten lid)))
  | Pexp_field (_, { txt = lid; _ }) -> (
    match List.rev (flatten lid) with f :: _ -> net_name f | [] -> false)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; _ }; _ }, _) ->
    under_net_module (List.rev (strip_stdlib (flatten lid)))
  | Pexp_construct ({ txt = Longident.Lident "Some"; _ }, Some e) -> smells_net e
  | Pexp_tuple es -> List.exists smells_net es
  | Pexp_constraint (e, ty) -> smells_net e || type_mentions_net ty
  | _ -> false

and type_mentions_net ty =
  match ty.ptyp_desc with
  | Ptyp_constr ({ txt = lid; _ }, args) ->
    (match List.rev (flatten lid) with
    | _ :: modules -> List.exists (fun m -> SS.mem m net_modules) modules
    | [] -> false)
    || List.exists type_mentions_net args
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Rule 1: ambient nondeterminism *)

let nondet_reason path =
  match path with
  | "Random" :: _ -> Some "ambient RNG; draw from the scenario's Sim.Rng stream"
  | ["Unix"; ("gettimeofday" | "time" | "localtime" | "gmtime")] ->
    Some "wall clock; use Sim.Time / the engine's simulated now"
  | ["Sys"; "time"] -> Some "process clock; use Sim.Time"
  | ["Hashtbl"; ("hash" | "seeded_hash" | "hash_param" | "randomize")] ->
    Some "polymorphic/seeded hashing; write an explicit structural hash"
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Rule 3: hashtable iteration escaping into emitted output *)

let hashtbl_module m =
  m = "Hashtbl"
  ||
  let m = String.lowercase_ascii m in
  let n = String.length m in
  n >= 6 && String.sub m (n - 6) 6 = "_table"

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let emit_binding_name n =
  let n = String.lowercase_ascii n in
  n = "pp"
  || List.exists
       (fun k -> contains_sub ~sub:k n)
       ["pp_"; "json"; "csv"; "emit"; "export"; "print"; "dump"; "report"; "render"; "write"]

let sorted_ident rev_path name =
  (match rev_path with
  | ("sort" | "stable_sort" | "sort_uniq" | "fast_sort") :: _ -> true
  | _ -> false)
  || contains_sub ~sub:"sorted" (String.lowercase_ascii name)

let sink_ident path =
  List.exists (fun m -> m = "Json") path
  || (match path with
     | "Trace" :: _ | _ :: "Trace" :: _ -> true
     | _ -> false)
  || (match List.rev path with
     | f :: "Fmt" :: _ -> f = "pf" || f = "pr" || f = "epr"
     | _ -> false)
  || path = ["output_string"] || path = ["print_string"]
  || path = ["print_endline"] || path = ["prerr_endline"]

(* Cheap syntactic scan of a binding body, used to classify the frame. *)
let scan_body e =
  let emit = ref false and sorted = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = lid; _ } ->
            let path = strip_stdlib (flatten lid) in
            let rev = List.rev path in
            let name = match rev with f :: _ -> f | [] -> "" in
            if sink_ident path then emit := true;
            if sorted_ident rev name then sorted := true
          | Pexp_construct ({ txt = lid; _ }, _) ->
            if List.exists (fun m -> m = "Json") (flatten lid) then emit := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  (!emit, !sorted)

(* ------------------------------------------------------------------ *)
(* Rule 4: wildcards on closed event variants *)

let closed_constructors =
  SS.of_list
    [
      (* Openflow.Message.t *)
      "Hello"; "Echo_request"; "Echo_reply"; "Features_request";
      "Features_reply"; "Flow_mod"; "Packet_in"; "Packet_out";
      "Barrier_request"; "Barrier_reply";
      (* Sim.Faults.verdict *)
      "Drop"; "Deliver";
      (* Check.Schedule.event *)
      "Announce"; "Withdraw"; "Peer_down"; "Peer_up"; "Bfd_flap";
      "Of_blackout"; "Router_faults"; "Channel_dup";
    ]

let rec pattern_heads acc p =
  match p.ppat_desc with
  | Ppat_construct ({ txt = lid; _ }, arg) ->
    let acc =
      match List.rev (flatten lid) with h :: _ -> h :: acc | [] -> acc
    in
    (match arg with Some (_, p) -> pattern_heads acc p | None -> acc)
  | Ppat_tuple ps -> List.fold_left pattern_heads acc ps
  | Ppat_or (a, b) -> pattern_heads (pattern_heads acc a) b
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pattern_heads acc p
  | _ -> acc

let rec is_wildcard p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> is_wildcard p
  | _ -> false

let check_catch_all t cases =
  let heads =
    List.fold_left (fun acc c -> pattern_heads acc c.pc_lhs) [] cases
  in
  let closed = List.filter (fun h -> SS.mem h closed_constructors) heads in
  match closed with
  | [] -> ()
  | witness :: _ ->
    List.iter
      (fun c ->
        if is_wildcard c.pc_lhs && Option.is_none c.pc_guard then
          error t ~loc:c.pc_lhs.ppat_loc ~rule:rule_catch_all
            "unguarded `_` in a match over a closed event variant (saw %s); \
             enumerate the remaining constructors so new events force a review"
            witness)
      cases

(* ------------------------------------------------------------------ *)
(* Suppression *)

let record_allow t ~loc ~whole_file (attr : attribute) =
  if attr.attr_name.txt = "lint.allow" then begin
    let strings =
      match attr.attr_payload with
      | PStr [{ pstr_desc = Pstr_eval (e, _); _ }] -> (
        match e.pexp_desc with
        | Pexp_constant (Pconst_string (s, _, _)) -> Some [s]
        | Pexp_tuple es ->
          let str e =
            match e.pexp_desc with
            | Pexp_constant (Pconst_string (s, _, _)) -> Some s
            | _ -> None
          in
          let ss = List.filter_map str es in
          if List.length ss = List.length es then Some ss else None
        | _ -> None)
      | _ -> None
    in
    match strings with
    | Some rules ->
      let a_from = loc.Location.loc_start.Lexing.pos_lnum in
      let a_to =
        if whole_file then max_int else loc.Location.loc_end.Lexing.pos_lnum
      in
      t.allows <- { a_rules = rules; a_from; a_to } :: t.allows
    | None ->
      report t ~loc:attr.attr_loc ~rule:rule_allow ~severity:Diagnostic.Error
        "[@lint.allow] payload must be a string literal (or a tuple of them) \
         naming the suppressed rule(s)"
  end

let record_allows t ~loc attrs =
  List.iter (record_allow t ~loc ~whole_file:false) attrs

let allow_covers allows (d : Diagnostic.t) =
  List.exists
    (fun a ->
      d.Diagnostic.line >= a.a_from
      && d.Diagnostic.line <= a.a_to
      && (List.mem d.Diagnostic.rule a.a_rules || List.mem "all" a.a_rules))
    allows

let suppressed t d = allow_covers t.allows d

(* ------------------------------------------------------------------ *)
(* The main expression checks *)

let check_ident t ~loc lid =
  let path = strip_stdlib (flatten lid) in
  (if t.in_lib && not t.nondet_exempt then
     match nondet_reason path with
     | Some reason ->
       error t ~loc ~rule:rule_nondet "%s is %s" (path_str lid) reason
     | None -> ());
  (match path with
  | ["compare"] when not (SS.mem "compare" t.local_defs) ->
    error t ~loc ~rule:rule_polycmp
      "polymorphic compare; use the owning module's compare (Prefix.compare, \
       Attributes.compare, ...) or an explicit comparator"
  | _ -> ());
  (if t.fast_path then
     match path with
     | ["failwith"] | ["exit"] ->
       error t ~loc ~rule:rule_purity
         "%s in the controller fast path; degrade (return, count a metric) \
          instead of aborting"
         (path_str lid)
     | _ -> ());
  match List.rev path with
  | (("fold" | "iter") as f) :: m :: _ when hashtbl_module m ->
    let emit = List.exists (fun fr -> fr.f_emit) t.frames in
    let sorted = List.exists (fun fr -> fr.f_sorted) t.frames in
    if emit && not sorted then
      error t ~loc ~rule:rule_hashtbl
        "%s.%s feeds emitted output; hash iteration order is unspecified — \
         collect and sort the keys first"
        m f
  | _ -> ()

let poly_eq_hint = "use the owning module's equal/compare, not structural (=)"

(* The literal [None] as a comparison operand: [x = None] compares the
   whole option structurally, silently recursing into the payload if it
   is ever [Some] — the pattern that motivated the Fib_cache fix in
   PR 5 and resurfaced in lib/net. *)
let is_none_literal e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident "None"; _ }, None) -> true
  | _ -> false

let check_apply t e head args =
  match head.pexp_desc with
  | Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ } ->
    let operands = List.filter_map (function Asttypes.Nolabel, a -> Some a | _ -> None) args in
    if List.exists is_none_literal operands then
      error t ~loc:e.pexp_loc ~rule:rule_polycmp
        "(%s) against None is a structural comparison over the payload; use \
         Option.is_none/Option.is_some"
        op
    else if List.exists smells_net operands then
      error t ~loc:e.pexp_loc ~rule:rule_polycmp
        "(%s) on a value that looks like an abstract net/BGP type; %s" op
        poly_eq_hint
  | Pexp_ident { txt = lid; _ } -> (
    match strip_stdlib (flatten lid) with
    | ["List"; (("mem" | "assoc" | "assoc_opt" | "mem_assoc") as f)] ->
      let operands = List.map snd args in
      if List.exists smells_net operands then
        error t ~loc:e.pexp_loc ~rule:rule_polycmp
          "List.%s uses structural equality on a value that looks like an \
           abstract net/BGP type; %s"
          f poly_eq_hint
    | _ -> ())
  | _ -> ()

let check_expr t e =
  record_allows t ~loc:e.pexp_loc e.pexp_attributes;
  match e.pexp_desc with
  | Pexp_ident { txt; loc = _ } -> check_ident t ~loc:e.pexp_loc txt
  | Pexp_apply (head, args) -> check_apply t e head args
  | Pexp_assert
      { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
    when t.fast_path ->
    error t ~loc:e.pexp_loc ~rule:rule_purity
      "assert false in the controller fast path; degrade instead of aborting"
  | Pexp_match (_, cases) | Pexp_function cases -> check_catch_all t cases
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Driver *)

let collect_local_defs structure =
  let defs = ref SS.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt = ("compare" | "equal" | "hash") as n; _ } ->
            defs := SS.add n !defs
          | _ -> ());
          Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  it.structure it structure;
  !defs

let has_suffix ~suffix s =
  let n = String.length suffix and m = String.length s in
  m >= n && String.sub s (m - n) n = suffix

let fast_path_files = ["core/controller.ml"; "core/provisioner.ml"; "openflow/switch.ml"]

let make file =
  let in_lib =
    (String.length file >= 4 && String.sub file 0 4 = "lib/")
    || contains_sub ~sub:"/lib/" file
  in
  {
    file;
    in_lib;
    nondet_exempt =
      has_suffix ~suffix:"sim/rng.ml" file || has_suffix ~suffix:"sim/time.ml" file;
    fast_path =
      in_lib && List.exists (fun f -> has_suffix ~suffix:f file) fast_path_files;
    local_defs = SS.empty;
    allows = [];
    diags = [];
    frames = [];
  }

let run_collect ~file structure =
  let t = make file in
  t.local_defs <- collect_local_defs structure;
  let default = Ast_iterator.default_iterator in
  let expr it e =
    check_expr t e;
    default.expr it e
  in
  let value_binding it vb =
    record_allows t ~loc:vb.pvb_loc vb.pvb_attributes;
    let name =
      match vb.pvb_pat.ppat_desc with Ppat_var { txt; _ } -> txt | _ -> ""
    in
    let body_emit, body_sorted = scan_body vb.pvb_expr in
    let frame =
      { f_emit = emit_binding_name name || body_emit; f_sorted = body_sorted }
    in
    t.frames <- frame :: t.frames;
    default.value_binding it vb;
    t.frames <- List.tl t.frames
  in
  let structure_item it si =
    (match si.pstr_desc with
    | Pstr_attribute a -> record_allow t ~loc:si.pstr_loc ~whole_file:true a
    | _ -> ());
    default.structure_item it si
  in
  let it = { default with expr; value_binding; structure_item } in
  it.structure it structure;
  let diags =
    t.diags
    |> List.filter (fun d -> not (suppressed t d))
    |> List.sort_uniq Diagnostic.compare
  in
  (diags, t.allows)
