(** The tuples general-purpose extension (§III-B): tuple types
    [(int, float, bool)], anonymous creation [(x, y, z)], and destructuring
    assignment [(a, b, c) = f()] — "a way of returning multiple arguments
    from a function … more general and can be used universally".

    Composability status, reproduced from §VI-A: this extension {b fails}
    the modular determinism analysis — "the initial symbol for tuple
    expressions is a left-paren '(', which violates the restriction that a
    unique initial terminal symbol is needed on extension syntax.  Thus the
    tuples extension will be packaged as part of the host language."
    The driver therefore always bundles this fragment with the host
    instead of offering it as a selectable extension, and the test suite
    asserts the analysis really does reject it.

    Because it is host-packaged, its abstract syntax lives in the host AST
    ([TyTuple], [TupleLit]) and its typing/lowering rules are host rules;
    this module contributes the concrete syntax, the tree→AST builders,
    and its AG-spec metadata. *)

open Grammar.Cfg

let name = "tuples"

(* --- concrete syntax -------------------------------------------------------- *)

let grammar : Grammar.Cfg.t =
  let p = production ~owner:name in
  {
    name;
    (* No terminals of its own: every token is the host's — which is
       exactly why isComposable rejects it. *)
    terminals = [];
    layout = [];
    productions =
      [
        (* (int, float, bool) — tuple types; at least two components so the
           syntax never collides with a parenthesised scalar type (cast). *)
        p ~name:"ty_tuple" "TypeE" [ T "LP"; N "TypeCommaList"; T "RP" ];
        p ~name:"tcl_two" "TypeCommaList"
          [ N "TypeE"; T "COMMA"; N "TypeE" ];
        p ~name:"tcl_cons" "TypeCommaList"
          [ N "TypeCommaList"; T "COMMA"; N "TypeE" ];
        (* (x, y, z) — anonymous tuple creation; also the destructuring
           pattern on the left of '=' (the typechecker enforces
           lvalue-ness there). *)
        p ~name:"prim_tuple" "Primary"
          [ T "LP"; N "E"; T "COMMA"; N "ArgList"; T "RP" ];
      ];
    start = None;
  }

(* --- tree -> AST ---------------------------------------------------------------- *)

let () =
  Hashtbl.replace Cminus.Build.ext_ty_builders "ty_tuple"
    (fun (ctx : Cminus.Build.ctx) t ->
      match t with
      | Parser.Tree.Node (_, [ _; tl; _ ], _) ->
          let rec flatten t =
            match t with
            | Parser.Tree.Node (p, [ a; _; b ], _)
              when p.Grammar.Cfg.p_name = "tcl_cons" ->
                flatten a @ [ ctx.Cminus.Build.ty b ]
            | Parser.Tree.Node (p, [ a; _; b ], _)
              when p.Grammar.Cfg.p_name = "tcl_two" ->
                [ ctx.Cminus.Build.ty a; ctx.Cminus.Build.ty b ]
            | _ ->
                Cminus.Build.err (Parser.Tree.span t) "malformed tuple type"
          in
          Cminus.Ast.TyTuple (flatten tl)
      | _ -> Cminus.Build.err (Parser.Tree.span t) "malformed tuple type");
  Hashtbl.replace Cminus.Build.ext_expr_builders "prim_tuple"
    (fun (ctx : Cminus.Build.ctx) t ->
      match t with
      | Parser.Tree.Node (_, [ _; e1; _; rest; _ ], span) ->
          Cminus.Ast.mk_expr
            (Cminus.Ast.TupleLit
               (ctx.Cminus.Build.expr e1 :: ctx.Cminus.Build.expr_list rest))
            span
      | _ -> Cminus.Build.err (Parser.Tree.span t) "malformed tuple literal")

(* --- attribute-grammar metadata ---------------------------------------------------- *)

(** Both tuple productions define the full host attribute complement
    (errors, type) and forward for translation — the standard pattern for
    a well-defined extension. *)
let ag_spec : Ag.Wellformed.spec =
  {
    sp_name = name;
    attrs = [];
    prods =
      [
        Ag.Wellformed.full_prod ~owner:name ~lhs:"TypeE"
          ~children:[ "TypeCommaList" ]
          ~defines:[ "errors"; "type" ] ~forwards:true "ty_tuple";
        Ag.Wellformed.full_prod ~owner:name ~lhs:"TypeCommaList"
          ~children:[ "TypeE"; "TypeE" ]
          ~defines:[ "errors"; "type" ] "tcl_two";
        Ag.Wellformed.full_prod ~owner:name ~lhs:"TypeCommaList"
          ~children:[ "TypeCommaList"; "TypeE" ]
          ~defines:[ "errors"; "type" ] "tcl_cons";
        Ag.Wellformed.full_prod ~owner:name ~lhs:"Primary"
          ~children:[ "E"; "ArgList" ]
          ~defines:[ "errors"; "type" ] ~forwards:true "prim_tuple";
      ];
  }
