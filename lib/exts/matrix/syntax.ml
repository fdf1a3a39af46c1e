(** Concrete syntax of the matrix extension (§III-A) and its tree→AST
    builders.

    Marking terminals (§VI-A): every bridge production onto a host
    nonterminal starts with a terminal owned by this extension ([Matrix],
    [with], [matrixMap], [init], [end], [:]) — except the two infix
    operators [::] (range) and [.*] (elementwise product), which are
    {e anchored} by an extension-owned terminal in second position; see
    [Grammar.Determinism] for how the analysis treats anchored operators.

    The [with] keyword overlaps the host identifier regex: the
    context-aware scanner resolves it, so [with] (and [end], [init], …)
    remain usable as identifiers wherever the extension's keywords are not
    valid — the exact scenario §VI-A describes. *)

open Grammar.Cfg

let name = "matrix"

let grammar : Grammar.Cfg.t =
  let kw = keyword ~owner:name in
  let p = production ~owner:name in
  {
    name;
    terminals =
      [
        kw "KW_Matrix" "Matrix";
        kw "KW_with" "with";
        kw "KW_genarray" "genarray";
        kw "KW_fold" "fold";
        kw "KW_matrixMap" "matrixMap";
        kw "KW_init" "init";
        kw "KW_end" "end";
        kw "KW_fmin" "min";
        kw "KW_fmax" "max";
        kw "COLON" ":";
        kw "RANGE" "::";
        kw "DOTSTAR" ".*";
      ];
    layout = [];
    productions =
      [
        (* Matrix float <3> — the matrix type (§III-A1). *)
        p ~name:"mty" "TypeE"
          [ T "KW_Matrix"; N "ScalarType"; T "LT"; T "INTLIT"; T "GT" ];
        (* ':' as a whole-dimension index (§III-A3c). *)
        p ~name:"ix_all" "Index" [ T "COLON" ];
        (* 'end' as the last index of the current dimension. *)
        p ~name:"prim_end" "Primary" [ T "KW_end" ];
        (* x1 :: x2 — range construction / range indexing (Fig 8). *)
        p ~name:"cmp_range" "Cmp" [ N "Add"; T "RANGE"; N "Add" ];
        (* elementwise multiplication .* (§III-A2). *)
        p ~name:"mul_dotstar" "Mul" [ N "Mul"; T "DOTSTAR"; N "Unary" ];
        (* the with-loop (Fig 2). *)
        p ~name:"prim_with" "Primary"
          [ T "KW_with"; T "LP"; N "WGen"; T "RP"; N "WOp" ];
        p ~name:"wgen" "WGen"
          [
            T "LSQ"; N "ArgList"; T "RSQ"; N "WRel"; T "LSQ"; N "WIdList";
            T "RSQ"; N "WRel"; T "LSQ"; N "ArgList"; T "RSQ";
          ];
        p ~name:"wrel_lt" "WRel" [ T "LT" ];
        p ~name:"wrel_le" "WRel" [ T "LE" ];
        p ~name:"wid_one" "WIdList" [ T "ID" ];
        p ~name:"wid_cons" "WIdList" [ N "WIdList"; T "COMMA"; T "ID" ];
        p ~name:"wop_genarray" "WOp"
          [
            T "KW_genarray"; T "LP"; T "LSQ"; N "ArgList"; T "RSQ"; T "COMMA";
            N "E"; T "RP";
          ];
        p ~name:"wop_fold" "WOp"
          [
            T "KW_fold"; T "LP"; N "FoldOp"; T "COMMA"; N "E"; T "COMMA";
            N "E"; T "RP";
          ];
        p ~name:"foldop_plus" "FoldOp" [ T "PLUS" ];
        p ~name:"foldop_times" "FoldOp" [ T "STAR" ];
        p ~name:"foldop_min" "FoldOp" [ T "KW_fmin" ];
        p ~name:"foldop_max" "FoldOp" [ T "KW_fmax" ];
        (* matrixMap(f, m, [dims]) (§III-A5). *)
        p ~name:"prim_mmap" "Primary"
          [
            T "KW_matrixMap"; T "LP"; T "ID"; T "COMMA"; N "E"; T "COMMA";
            T "LSQ"; N "ArgList"; T "RSQ"; T "RP";
          ];
        (* init(Matrix int <2>, 721, 1440) (Fig 4). *)
        p ~name:"prim_init" "Primary"
          [ T "KW_init"; T "LP"; N "TypeE"; T "COMMA"; N "ArgList"; T "RP" ];
      ];
    start = None;
  }

(* --- tree -> AST --------------------------------------------------------------- *)

module B = Cminus.Build
module Tree = Parser.Tree

let lexeme t =
  match t with
  | Tree.Leaf tok -> tok.Lexer.Token.lexeme
  | _ -> B.err (Tree.span t) "expected a token"

let rel_of t =
  match Tree.prod_name t with
  | "wrel_lt" -> Nodes.RLt
  | "wrel_le" -> Nodes.RLe
  | s -> B.err (Tree.span t) "unexpected relation %s" s

let rec wids t =
  match t with
  | Tree.Node (p, [ id ], _) when p.Grammar.Cfg.p_name = "wid_one" ->
      [ lexeme id ]
  | Tree.Node (p, [ rest; _; id ], _) when p.Grammar.Cfg.p_name = "wid_cons" ->
      wids rest @ [ lexeme id ]
  | _ -> B.err (Tree.span t) "malformed with-loop index list"

let build_wgen (ctx : B.ctx) t : Nodes.generator =
  match t with
  | Tree.Node (_, [ _; lo; _; rel1; _; ids; _; rel2; _; hi; _ ], span) ->
      {
        Nodes.lo = ctx.B.expr_list lo;
        lo_rel = rel_of rel1;
        ids = wids ids;
        hi_rel = rel_of rel2;
        hi = ctx.B.expr_list hi;
        gspan = span;
      }
  | _ -> B.err (Tree.span t) "malformed with-loop generator"

let build_wop (ctx : B.ctx) t : Nodes.operation =
  match t with
  | Tree.Node (p, kids, _) when p.Grammar.Cfg.p_name = "wop_genarray" -> (
      match kids with
      | [ _; _; _; shape; _; _; body; _ ] ->
          Nodes.OGenarray (ctx.B.expr_list shape, ctx.B.expr body)
      | _ -> B.err (Tree.span t) "malformed genarray")
  | Tree.Node (p, kids, _) when p.Grammar.Cfg.p_name = "wop_fold" -> (
      match kids with
      | [ _; _; fo; _; base; _; body; _ ] ->
          let op =
            match Tree.prod_name fo with
            | "foldop_plus" -> Nodes.FPlus
            | "foldop_times" -> Nodes.FTimes
            | "foldop_min" -> Nodes.FMin
            | "foldop_max" -> Nodes.FMax
            | s -> B.err (Tree.span fo) "unexpected fold operator %s" s
          in
          Nodes.OFold (op, ctx.B.expr base, ctx.B.expr body)
      | _ -> B.err (Tree.span t) "malformed fold")
  | _ -> B.err (Tree.span t) "malformed with-loop operation"

(* Tree -> AST builders, registered once when the module is initialised. *)
let () =
  Hashtbl.replace B.ext_ty_builders "mty" (fun ctx t ->
      match t with
      | Tree.Node (_, [ _; sty; _; rank; _ ], span) ->
          let r = int_of_string (lexeme rank) in
          if r < 1 then B.err span "matrix rank must be at least 1"
          else Cminus.Ast.TyExt (Nodes.TyMatrix (ctx.B.ty sty, r))
      | _ -> B.err (Tree.span t) "malformed Matrix type");
  Hashtbl.replace B.ext_index_builders "ix_all" (fun _ctx t ->
      Cminus.Ast.IAll (Tree.span t));
  Hashtbl.replace B.ext_expr_builders "prim_end" (fun _ctx t ->
      Cminus.Ast.mk_expr (Cminus.Ast.ExtE Nodes.EEnd) (Tree.span t));
  Hashtbl.replace B.ext_expr_builders "cmp_range" (fun ctx t ->
      match t with
      | Tree.Node (_, [ a; _; b ], span) ->
          Cminus.Ast.mk_expr
            (Cminus.Ast.Bin
               (Cminus.Ast.BExt Nodes.op_range, ctx.B.expr a, ctx.B.expr b))
            span
      | _ -> B.err (Tree.span t) "malformed range");
  Hashtbl.replace B.ext_expr_builders "mul_dotstar" (fun ctx t ->
      match t with
      | Tree.Node (_, [ a; _; b ], span) ->
          Cminus.Ast.mk_expr
            (Cminus.Ast.Bin
               (Cminus.Ast.BExt Nodes.op_dotstar, ctx.B.expr a, ctx.B.expr b))
            span
      | _ -> B.err (Tree.span t) "malformed .*");
  Hashtbl.replace B.ext_expr_builders "prim_with" (fun ctx t ->
      match t with
      | Tree.Node (_, [ _; _; gen; _; op ], span) ->
          Cminus.Ast.mk_expr
            (Cminus.Ast.ExtE
               (Nodes.EWith (build_wgen ctx gen, build_wop ctx op)))
            span
      | _ -> B.err (Tree.span t) "malformed with-loop");
  Hashtbl.replace B.ext_expr_builders "prim_mmap" (fun ctx t ->
      match t with
      | Tree.Node (_, [ _; _; f; _; m; _; _; dims; _; _ ], span) ->
          let dim_exprs = ctx.B.expr_list dims in
          let dims =
            List.map
              (fun (e : Cminus.Ast.expr) ->
                match e.Cminus.Ast.e with
                | Cminus.Ast.IntLit i -> i
                | _ ->
                    B.err e.Cminus.Ast.espan
                      "matrixMap dimensions must be integer literals")
              dim_exprs
          in
          Cminus.Ast.mk_expr
            (Cminus.Ast.ExtE (Nodes.EMatrixMap (lexeme f, ctx.B.expr m, dims)))
            span
      | _ -> B.err (Tree.span t) "malformed matrixMap");
  Hashtbl.replace B.ext_expr_builders "prim_init" (fun ctx t ->
      match t with
      | Tree.Node (_, [ _; _; ty; _; dims; _ ], span) ->
          Cminus.Ast.mk_expr
            (Cminus.Ast.ExtE (Nodes.EInit (ctx.B.ty ty, ctx.B.expr_list dims)))
            span
      | _ -> B.err (Tree.span t) "malformed init")
