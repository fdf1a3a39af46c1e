(** Concrete-syntax trees → abstract syntax.

    Dispatches on production names; extensions register builders for their
    own productions in the tables below, once, when their module is
    initialised (as they register their AST printers with {!Ast}).  No two
    extensions share a production name, so the tables are written before
    [main] runs and only read after: composing a translator writes
    nothing, and a composition without an extension never parses one of
    its productions.  This mirrors how Silver concrete-syntax productions
    construct abstract-syntax trees. *)

module Tree = Parser.Tree

exception Build_error of string * Support.Pos.span

let err span fmt =
  Format.kasprintf (fun m -> raise (Build_error (m, span))) fmt

type ctx = {
  expr : Tree.t -> Ast.expr;
  ty : Tree.t -> Ast.ty_expr;
  stmt : Tree.t -> Ast.stmt list;
  index : Tree.t -> Ast.index;
  expr_list : Tree.t -> Ast.expr list;  (** flattens an ArgList tree *)
}

(* Extension builder registries, keyed by production name; written only
   by the extensions' module initialisers. *)
let ext_expr_builders : (string, ctx -> Tree.t -> Ast.expr) Hashtbl.t =
  Hashtbl.create 32

let ext_stmt_builders : (string, ctx -> Tree.t -> Ast.stmt list) Hashtbl.t =
  Hashtbl.create 16

let ext_ty_builders : (string, ctx -> Tree.t -> Ast.ty_expr) Hashtbl.t =
  Hashtbl.create 16

let ext_index_builders : (string, ctx -> Tree.t -> Ast.index) Hashtbl.t =
  Hashtbl.create 16

let node = function
  | Tree.Node (p, kids, span) -> (p.Grammar.Cfg.p_name, kids, span)
  | Tree.Leaf tok ->
      (tok.Lexer.Token.term, [], tok.Lexer.Token.span)

let leaf_lexeme t =
  match t with
  | Tree.Leaf tok -> tok.Lexer.Token.lexeme
  | Tree.Node (_, _, span) -> err span "expected a token"

(* Flatten left-recursive list trees by production-name suffix convention:
   <x>_one/<x>_cons or nil/cons. *)
let rec flatten_list ~cons_names ~one_names t : Tree.t list =
  match t with
  | Tree.Node (p, kids, _) when List.mem p.Grammar.Cfg.p_name cons_names -> (
      match kids with
      | [ rest; item ] -> flatten_list ~cons_names ~one_names rest @ [ item ]
      | [ rest; _comma; item ] ->
          flatten_list ~cons_names ~one_names rest @ [ item ]
      | _ -> err (Tree.span t) "malformed list production")
  | Tree.Node (p, kids, _) when List.mem p.Grammar.Cfg.p_name one_names -> (
      match kids with
      | [ item ] -> [ item ]
      | [] -> []
      | _ -> err (Tree.span t) "malformed list head")
  | _ -> [ t ]

let rec build_ty (t : Tree.t) : Ast.ty_expr =
  let name, kids, span = node t in
  match (name, kids) with
  | "ty_scalar", [ st ] -> build_ty st
  | "ty_void", _ -> Ast.TyVoid
  | "sty_int", _ -> Ast.TyInt
  | "sty_float", _ -> Ast.TyFloat
  | "sty_bool", _ -> Ast.TyBool
  | _ -> (
      match Hashtbl.find_opt ext_ty_builders name with
      | Some b -> b ctx t
      | None -> err span "unknown type production %s" name)

and build_expr (t : Tree.t) : Ast.expr =
  let name, kids, span = node t in
  let mk e = Ast.mk_expr e span in
  let bin op a b = mk (Ast.Bin (op, build_expr a, build_expr b)) in
  match (name, kids) with
  | ("e_top" | "or_and" | "and_cmp" | "cmp_add" | "add_mul" | "mul_unary"
    | "un_post" | "post_prim"), [ x ] ->
      build_expr x
  | "or_or", [ a; _; b ] -> bin (Ast.BLogic Runtime.Scalar.Or) a b
  | "and_and", [ a; _; b ] -> bin (Ast.BLogic Runtime.Scalar.And) a b
  | "cmp_lt", [ a; _; b ] -> bin (Ast.BCmp Runtime.Scalar.Lt) a b
  | "cmp_le", [ a; _; b ] -> bin (Ast.BCmp Runtime.Scalar.Le) a b
  | "cmp_gt", [ a; _; b ] -> bin (Ast.BCmp Runtime.Scalar.Gt) a b
  | "cmp_ge", [ a; _; b ] -> bin (Ast.BCmp Runtime.Scalar.Ge) a b
  | "cmp_eq", [ a; _; b ] -> bin (Ast.BCmp Runtime.Scalar.Eq) a b
  | "cmp_ne", [ a; _; b ] -> bin (Ast.BCmp Runtime.Scalar.Ne) a b
  | "add_plus", [ a; _; b ] -> bin (Ast.BArith Runtime.Scalar.Add) a b
  | "add_minus", [ a; _; b ] -> bin (Ast.BArith Runtime.Scalar.Sub) a b
  | "mul_star", [ a; _; b ] -> bin (Ast.BArith Runtime.Scalar.Mul) a b
  | "mul_slash", [ a; _; b ] -> bin (Ast.BArith Runtime.Scalar.Div) a b
  | "mul_percent", [ a; _; b ] -> bin (Ast.BArith Runtime.Scalar.Mod) a b
  | "un_neg", [ _; x ] -> mk (Ast.Un (Ast.UNeg, build_expr x))
  | "un_not", [ _; x ] -> mk (Ast.Un (Ast.UNot, build_expr x))
  | "un_cast", [ _; ty; _; x ] -> mk (Ast.Cast (build_ty ty, build_expr x))
  | "post_subscript", [ base; _; ixl; _ ] ->
      mk (Ast.Subscript (build_expr base, build_index_list ixl))
  | "prim_int", [ l ] -> mk (Ast.IntLit (int_of_string (leaf_lexeme l)))
  | "prim_float", [ l ] ->
      let lx = leaf_lexeme l in
      let lx =
        if String.length lx > 0 && lx.[String.length lx - 1] = 'f' then
          String.sub lx 0 (String.length lx - 1)
        else lx
      in
      mk (Ast.FloatLit (float_of_string lx))
  | "prim_true", _ -> mk (Ast.BoolLit true)
  | "prim_false", _ -> mk (Ast.BoolLit false)
  | "prim_str", [ l ] ->
      let lx = leaf_lexeme l in
      mk (Ast.StrLit (String.sub lx 1 (String.length lx - 2)))
  | "prim_id", [ l ] -> mk (Ast.Ident (leaf_lexeme l))
  | "prim_paren", [ _; e; _ ] -> build_expr e
  | "prim_call", [ f; _; args; _ ] ->
      mk (Ast.CallE (leaf_lexeme f, build_args args))
  | _ -> (
      match Hashtbl.find_opt ext_expr_builders name with
      | Some b -> b ctx t
      | None -> err span "unknown expression production %s" name)

and build_args (t : Tree.t) : Ast.expr list =
  let name, kids, _ = node t in
  match (name, kids) with
  | "args_none", _ -> []
  | "args_some", [ al ] -> build_args al
  | _ ->
      flatten_list ~cons_names:[ "al_cons" ] ~one_names:[ "al_one" ] t
      |> List.map build_expr

and build_index_list (t : Tree.t) : Ast.index list =
  flatten_list ~cons_names:[ "il_cons" ] ~one_names:[ "il_one" ] t
  |> List.map build_index

and build_index (t : Tree.t) : Ast.index =
  let name, kids, span = node t in
  match (name, kids) with
  | "ix_expr", [ e ] -> Ast.IExpr (build_expr e)
  | _ -> (
      match Hashtbl.find_opt ext_index_builders name with
      | Some b -> b ctx t
      | None -> err span "unknown index production %s" name)

and build_stmt (t : Tree.t) : Ast.stmt list =
  let name, kids, span = node t in
  let mk s = [ Ast.mk_stmt s span ] in
  match (name, kids) with
  | "st_simple", [ simple; _ ] -> build_simple simple
  | "st_if", [ ifs ] -> build_stmt ifs
  | "if_stmt", [ _; _; c; _; blk; tail ] ->
      let els =
        let tname, tkids, _ = node tail in
        match (tname, tkids) with
        | "iftail_none", _ -> []
        | "iftail_else", [ _; b ] -> build_block b
        | "iftail_elseif", [ _; ifs ] -> build_stmt ifs
        | _ -> err span "unknown if-tail %s" tname
      in
      mk (Ast.IfS (build_expr c, build_block blk, els))
  | "st_while", [ _; _; c; _; blk ] ->
      mk (Ast.WhileS (build_expr c, build_block blk))
  | "st_for", [ _; _; init; _; cond; _; step; _; blk ] ->
      let init_s =
        match build_simple init with
        | [ s ] -> Some s
        | _ -> err span "for-init must be a single statement"
      in
      let step_s =
        let sname, skids, sspan = node step in
        match (sname, skids) with
        | "forstep_assign", [ lhs; _; e ] ->
            Some (Ast.mk_stmt (Ast.AssignS (build_expr lhs, build_expr e)) sspan)
        | "forstep_incr", [ id; _ ] ->
            let v = leaf_lexeme id in
            Some
              (Ast.mk_stmt
                 (Ast.AssignS
                    ( Ast.mk_expr (Ast.Ident v) sspan,
                      Ast.mk_expr
                        (Ast.Bin
                           ( Ast.BArith Runtime.Scalar.Add,
                             Ast.mk_expr (Ast.Ident v) sspan,
                             Ast.mk_expr (Ast.IntLit 1) sspan ))
                        sspan ))
                 sspan)
        | _ -> err sspan "unknown for-step %s" sname
      in
      mk (Ast.ForS (init_s, Some (build_expr cond), step_s, build_block blk))
  | "st_block", [ blk ] -> mk (Ast.BlockS (build_block blk))
  | _ -> (
      match Hashtbl.find_opt ext_stmt_builders name with
      | Some b -> b ctx t
      | None -> err span "unknown statement production %s" name)

and build_simple (t : Tree.t) : Ast.stmt list =
  let name, kids, span = node t in
  let mk s = [ Ast.mk_stmt s span ] in
  match (name, kids) with
  | "simple_decl", [ ty; id ] ->
      mk (Ast.DeclS (build_ty ty, leaf_lexeme id, None))
  | "simple_decl_init", [ ty; id; _; e ] ->
      mk (Ast.DeclS (build_ty ty, leaf_lexeme id, Some (build_expr e)))
  | "simple_assign", [ lhs; _; e ] ->
      mk (Ast.AssignS (build_expr lhs, build_expr e))
  | "simple_incr", [ id; _ ] ->
      let v = leaf_lexeme id in
      mk
        (Ast.AssignS
           ( Ast.mk_expr (Ast.Ident v) span,
             Ast.mk_expr
               (Ast.Bin
                  ( Ast.BArith Runtime.Scalar.Add,
                    Ast.mk_expr (Ast.Ident v) span,
                    Ast.mk_expr (Ast.IntLit 1) span ))
               span ))
  | "simple_expr", [ e ] -> mk (Ast.ExprStmt (build_expr e))
  | "simple_ret", _ -> mk (Ast.ReturnS None)
  | "simple_ret_e", [ _; e ] -> mk (Ast.ReturnS (Some (build_expr e)))
  | "simple_break", _ -> mk Ast.BreakS
  | "simple_continue", _ -> mk Ast.ContinueS
  | _ -> (
      match Hashtbl.find_opt ext_stmt_builders name with
      | Some b -> b ctx t
      | None -> err span "unknown simple-statement production %s" name)

and build_block (t : Tree.t) : Ast.stmt list =
  let name, kids, span = node t in
  match (name, kids) with
  | "block", [ _; sl; _ ] -> build_stmt_list sl
  | _ -> err span "expected a block, got %s" name

and build_stmt_list (t : Tree.t) : Ast.stmt list =
  let name, kids, _ = node t in
  match (name, kids) with
  | "stmts_nil", _ -> []
  | "stmts_cons", [ rest; s ] -> build_stmt_list rest @ build_stmt s
  | _ -> err (Tree.span t) "expected a statement list, got %s" name

and ctx =
  {
    expr = (fun t -> build_expr t);
    ty = (fun t -> build_ty t);
    stmt = (fun t -> build_stmt t);
    index = (fun t -> build_index t);
    expr_list = (fun t -> build_args t);
  }

let build_fun (t : Tree.t) : Ast.fundef =
  let name, kids, span = node t in
  match (name, kids) with
  | "fun_def", [ ret; id; _; params; _; blk ] ->
      let params =
        let pname, pkids, _ = node params in
        match (pname, pkids) with
        | "params_none", _ -> []
        | "params_some", [ ps ] ->
            flatten_list ~cons_names:[ "params_cons" ]
              ~one_names:[ "params_one" ] ps
            |> List.map (fun pt ->
                   let n, ks, sp = node pt in
                   match (n, ks) with
                   | "param", [ ty; pid ] -> (build_ty ty, leaf_lexeme pid)
                   | _ -> err sp "expected a parameter")
        | _ -> err span "malformed parameter list"
      in
      {
        Ast.fname = leaf_lexeme id;
        params;
        ret = build_ty ret;
        body = build_block blk;
        fspan = span;
      }
  | _ -> err span "expected a function definition, got %s" name

(** [program tree] — build the whole program AST from a [Program] parse
    tree. *)
let program (t : Tree.t) : Ast.program =
  let name, kids, span = node t in
  match (name, kids) with
  | "prog", [ fl ] ->
      flatten_list ~cons_names:[ "funs_cons" ] ~one_names:[ "funs_one" ] fl
      |> List.map build_fun
  | _ -> err span "expected a program, got %s" name
