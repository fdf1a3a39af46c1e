(** The pure half of composition (§II, §VI): the two modular analyses,
    the grammar union, the LALR(1) tables and the scanner DFAs.

    Everything here is a function of data compiled into mmc — the host
    grammar and the shipped extensions' grammars and attribute
    specifications.  The build therefore runs it once, for every subset
    of the shipped extensions ([gen/snapshot_gen.ml]), and the driver
    reads the baked result back instead of recomputing it in every
    process.  {!compose} stays the live path for extensions the build
    did not see. *)

module Cfg = Grammar.Cfg
module Tel = Support.Telemetry

(** What composition needs of an extension: its grammar fragment and
    its attribute-grammar specification. *)
type ext = { grammar : Cfg.t; ag_spec : Ag.Wellformed.spec }

(** The shipped extensions in canonical order: bit [i] of a snapshot
    subset index selects the [i]th. *)
let shipped =
  [
    {
      grammar = Ext_matrix.Matrix_ext.grammar;
      ag_spec = Ext_matrix.Matrix_ext.ag_spec;
    };
    {
      grammar = Ext_transform.Transform_ext.grammar;
      ag_spec = Ext_transform.Transform_ext.ag_spec;
    };
    {
      grammar = Ext_refptr.Refptr_ext.grammar;
      ag_spec = Ext_refptr.Refptr_ext.ag_spec;
    };
    {
      grammar = Ext_cilk.Cilk_ext.grammar;
      ag_spec = Ext_cilk.Cilk_ext.ag_spec;
    };
  ]

(** [shipped_index ~grammar ~ag_spec] — position in {!shipped} of the
    extension with exactly this (physically the same) grammar and
    specification; [None] for anything the build did not compose. *)
let shipped_index ~grammar ~ag_spec =
  let rec go i = function
    | [] -> None
    | x :: rest ->
        if x.grammar == grammar && x.ag_spec == ag_spec then Some i
        else go (i + 1) rest
  in
  go 0 shipped

(** The effective host: CMINUS plus the tuples fragment, which failed
    [isComposable] and is therefore "packaged as part of the host
    language" (§VI-A). *)
let effective_host : Cfg.t =
  Cfg.compose Cminus.Syntax.fragment [ Ext_tuples.Tuples_ext.grammar ]

(** The host's attribute-grammar specification, generated from the host
    grammar. *)
let host_ag_spec : Ag.Wellformed.spec =
  let nts =
    Cfg.nonterminals Cminus.Syntax.fragment
    @ Cfg.nonterminals Ext_tuples.Tuples_ext.grammar
    |> List.sort_uniq String.compare
  in
  let prod_decl (p : Cfg.production) =
    Ag.Wellformed.full_prod ~owner:"host" ~lhs:p.Cfg.lhs
      ~children:
        (List.filter_map
           (function Cfg.N n -> Some n | Cfg.T _ -> None)
           p.Cfg.rhs)
      ~defines:[ "errors"; "type" ] p.Cfg.p_name
  in
  let attr a_name a_mode a_autocopy =
    {
      Ag.Wellformed.a_name;
      a_mode;
      a_autocopy;
      a_occurs = nts;
      a_owner = "host";
      a_default = false;
    }
  in
  {
    sp_name = "host";
    attrs =
      [
        attr "errors" Ag.Wellformed.Syn false;
        attr "type" Ag.Wellformed.Syn false;
        attr "env" Ag.Wellformed.Inh true;
      ];
    prods =
      List.map prod_decl
        (Cminus.Syntax.fragment.Cfg.productions
        @ Ext_tuples.Tuples_ext.grammar.Cfg.productions);
  }

(** A composed translator's tables and the analysis reports that
    admitted it. *)
type tables = {
  table : Grammar.Lalr.t;
  parser_ : Parser.Driver.t;
  determinism_reports : Grammar.Determinism.report list;
  ag_reports : Ag.Wellformed.report list;
}

(** A composition's outcome: the tables, or the text of the first
    failed check. *)
type verdict = (tables, string) result

(** [analyses exts] — the determinism and well-definedness reports of
    each extension against the host.  Each is a per-extension check, so
    its result does not depend on which other extensions join. *)
let analyses (exts : ext list) =
  let det =
    Tel.with_span ~phase:"compose" "compose.determinism" (fun () ->
        List.map
          (fun x -> Grammar.Determinism.check effective_host x.grammar)
          exts)
  in
  let ag =
    Tel.with_span ~phase:"compose" "compose.wellformed" (fun () ->
        List.map
          (fun x -> Ag.Wellformed.check ~host:host_ag_spec x.ag_spec)
          exts)
  in
  (det, ag)

(** [build ~det ~ag grammars] — compose the host with [grammars], whose
    analysis reports are [det] and [ag]: a failed report, a clash in the
    grammar union (e.g. an extension selected twice), or LALR(1)
    conflicts in the composed grammar make the verdict an error. *)
let build ~det ~ag (grammars : Cfg.t list) : verdict =
  match
    ( List.find_opt (fun r -> not r.Grammar.Determinism.passes) det,
      List.find_opt (fun r -> not r.Ag.Wellformed.passes) ag )
  with
  | Some r, _ -> Error (Fmt.str "%a" Grammar.Determinism.pp_report r)
  | None, Some r -> Error (Fmt.str "%a" Ag.Wellformed.pp_report r)
  | None, None -> (
      match Cfg.compose effective_host grammars with
      | exception Cfg.Compose_error m -> Error m
      | cfg ->
          let table =
            Tel.with_span ~phase:"compose" "compose.lalr" (fun () ->
                Grammar.Lalr.build cfg)
          in
          if not (Grammar.Lalr.is_lalr1 table) then
            Error
              (Fmt.str "composed grammar has conflicts:@.%a"
                 (Fmt.list ~sep:Fmt.cut
                    (Grammar.Lalr.pp_conflict table.Grammar.Lalr.g))
                 table.Grammar.Lalr.conflicts)
          else
            let parser_ =
              Tel.with_span ~phase:"compose" "compose.scanner" (fun () ->
                  Parser.Driver.create table)
            in
            Ok { table; parser_; determinism_reports = det; ag_reports = ag })

(** [compose exts] — run both analyses on [exts] and compose them with
    the host, live. *)
let compose (exts : ext list) : verdict =
  let det, ag = analyses exts in
  build ~det ~ag (List.map (fun x -> x.grammar) exts)
