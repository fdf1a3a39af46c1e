(** The explicit program-transformation extension (§V).

    Adds a [transform] clause to assignments whose right-hand side is a
    with-loop, letting the programmer direct how the generated for-loops
    are restructured (Fig 9):

    {v
      means = with([0,0] <= [i,j] < [m,n])
              genarray([m,n], …)
        transform split j by 4, jin, jout.
                  vectorize jin.
                  parallelize i;
    v}

    Transformations are applied "in the order in which they appear" to the
    loop nest generated for that statement, by {!Cir.Transforms} — split,
    vectorize (4×f32 simulated SSE), parallelize, reorder, interchange,
    unroll, and tile ("two splits and a reorder").  The extension's
    semantic analysis reproduces the paper's check "that the loop indices
    in the transformations correspond to loops in the code being
    transformed": a bad index is reported with the loops actually in
    scope. *)

open Grammar.Cfg
module A = Cminus.Ast
module T = Cir.Transforms

let name = "transform"

type A.ext_stmt +=
  | STransformAssign of A.expr * A.expr * T.t list
      (** lhs, rhs, transformation script *)

let () =
  A.register_ext_stmt_printer (function
    | STransformAssign (_, _, ts) ->
        Some
          ("transform "
          ^ String.concat ". " (List.map T.to_string ts))
    | _ -> None);
  (* the script reschedules the assignment's loops; the statement means
     the assignment *)
  A.register_ext_stmt_forward (function
    | STransformAssign (lhs, rhs, _) -> Some (A.AssignS (lhs, rhs))
    | _ -> None)

(* --- concrete syntax ----------------------------------------------------------- *)

let grammar : Grammar.Cfg.t =
  let kw = keyword ~owner:name in
  let p = production ~owner:name in
  {
    name;
    terminals =
      [
        kw "KW_transform" "transform";
        kw "KW_split" "split";
        kw "KW_by" "by";
        kw "KW_vectorize" "vectorize";
        kw "KW_parallelize" "parallelize";
        kw "KW_reorder" "reorder";
        kw "KW_interchange" "interchange";
        kw "KW_unroll" "unroll";
        kw "KW_tile" "tile";
        kw "DOT" ".";
      ];
    layout = [];
    productions =
      [
        p ~name:"st_transform" "Simple"
          [ N "Postfix"; T "ASSIGN"; N "E"; T "KW_transform"; N "TransformList" ];
        p ~name:"tl_one" "TransformList" [ N "Transform" ];
        p ~name:"tl_cons" "TransformList"
          [ N "TransformList"; T "DOT"; N "Transform" ];
        p ~name:"tr_split" "Transform"
          [
            T "KW_split"; T "ID"; T "KW_by"; T "INTLIT"; T "COMMA"; T "ID";
            T "COMMA"; T "ID";
          ];
        p ~name:"tr_vectorize" "Transform" [ T "KW_vectorize"; T "ID" ];
        p ~name:"tr_parallelize" "Transform" [ T "KW_parallelize"; T "ID" ];
        p ~name:"tr_reorder" "Transform" [ T "KW_reorder"; N "TIdList" ];
        p ~name:"tidl_one" "TIdList" [ T "ID" ];
        p ~name:"tidl_cons" "TIdList" [ N "TIdList"; T "COMMA"; T "ID" ];
        p ~name:"tr_interchange" "Transform"
          [ T "KW_interchange"; T "ID"; T "COMMA"; T "ID" ];
        p ~name:"tr_unroll" "Transform"
          [ T "KW_unroll"; T "ID"; T "KW_by"; T "INTLIT" ];
        p ~name:"tr_tile" "Transform"
          [ T "KW_tile"; T "ID"; T "COMMA"; T "ID"; T "KW_by"; T "INTLIT" ];
      ];
    start = None;
  }

(* --- tree -> AST ------------------------------------------------------------------ *)

module Tree = Parser.Tree
module B = Cminus.Build

let lexeme t =
  match t with
  | Tree.Leaf tok -> tok.Lexer.Token.lexeme
  | _ -> B.err (Tree.span t) "expected a token"

let rec tidl t =
  match t with
  | Tree.Node (p, [ id ], _) when p.Grammar.Cfg.p_name = "tidl_one" ->
      [ lexeme id ]
  | Tree.Node (p, [ rest; _; id ], _) when p.Grammar.Cfg.p_name = "tidl_cons"
    ->
      tidl rest @ [ lexeme id ]
  | _ -> B.err (Tree.span t) "malformed index list"

let build_transform t : T.t =
  match t with
  | Tree.Node (p, kids, _) -> (
      match (p.Grammar.Cfg.p_name, kids) with
      | "tr_split", [ _; target; _; factor; _; inner; _; outer ] ->
          T.Split
            {
              target = lexeme target;
              factor = int_of_string (lexeme factor);
              inner = lexeme inner;
              outer = lexeme outer;
            }
      | "tr_vectorize", [ _; id ] -> T.Vectorize (lexeme id)
      | "tr_parallelize", [ _; id ] -> T.Parallelize (lexeme id)
      | "tr_reorder", [ _; ids ] -> T.Reorder (tidl ids)
      | "tr_interchange", [ _; a; _; b ] -> T.Interchange (lexeme a, lexeme b)
      | "tr_unroll", [ _; id; _; n ] ->
          T.Unroll { target = lexeme id; factor = int_of_string (lexeme n) }
      | "tr_tile", [ _; a; _; b; _; n ] ->
          T.Tile
            {
              outer_ix = lexeme a;
              inner_ix = lexeme b;
              size = int_of_string (lexeme n);
            }
      | s, _ -> B.err (Tree.span t) "unknown transformation %s" s)
  | _ -> B.err (Tree.span t) "malformed transformation"

let rec build_tl t : T.t list =
  match t with
  | Tree.Node (p, [ x ], _) when p.Grammar.Cfg.p_name = "tl_one" ->
      [ build_transform x ]
  | Tree.Node (p, [ rest; _; x ], _) when p.Grammar.Cfg.p_name = "tl_cons" ->
      build_tl rest @ [ build_transform x ]
  | _ -> B.err (Tree.span t) "malformed transformation list"

(* Tree -> AST builder, registered once when the module is initialised. *)
let () =
  Hashtbl.replace B.ext_stmt_builders "st_transform"
    (fun (ctx : B.ctx) t ->
      match t with
      | Tree.Node (_, [ lhs; _; rhs; _; tl ], span) ->
          [
            A.mk_stmt
              (A.ExtS
                 (STransformAssign (ctx.B.expr lhs, ctx.B.expr rhs, build_tl tl)))
              span;
          ]
      | _ -> B.err (Tree.span t) "malformed transform statement")

(* --- semantic analysis -------------------------------------------------------------- *)

let check_hooks : Cminus.Check.hooks =
  {
    (Cminus.Check.no_hooks name) with
    Cminus.Check.h_stmt =
      (fun t ext span ->
        match ext with
        | STransformAssign (lhs, rhs, ts) ->
            Cminus.Check.check_assign t span lhs rhs;
            (* static sanity of the script itself *)
            List.iter
              (fun tr ->
                match tr with
                | T.Split { factor; _ } when factor < 2 ->
                    Cminus.Check.error t span
                      "split factor must be at least 2"
                | T.Unroll { factor; _ } when factor < 2 ->
                    Cminus.Check.error t span
                      "unroll factor must be at least 2"
                | T.Tile { size; _ } when size < 2 ->
                    Cminus.Check.error t span "tile size must be at least 2"
                | _ -> ())
              ts;
            true
        | _ -> false);
  }

(* --- lowering: record the script as a site on the generated loops --------------------- *)

type Cir.Ir.site +=
  | Script of { ts : T.t list; span : Support.Pos.span }
      (** Payload: the lowered assignment's statements (the loop nest the
          script restructures).  The transform {!pass} applies the clauses
          in order — after auto-parallelization in the default pipeline,
          which is exactly the scheduling conflict §V worries about. *)

(* Demote every ParFor back to a plain For (recursively).  Used only to
   decide whether a script that failed to bind would have bound against
   the sequential nest — i.e. whether auto-parallelization is what broke
   it. *)
let demote_parfors stmts =
  Cir.Ir.map_stmts Fun.id
    (function Cir.Ir.ParFor l -> Cir.Ir.For l | s -> s)
    stmts

(* The single structured description of a skipped script (the warn-and-skip
   path below): one {!Support.Remark.t} value is the source of truth, and
   the stderr warning, the remark stream and the [--json] report all
   derive from it — so the skip reason can never drift between outputs. *)
let skip_remark ~span msg : Support.Remark.t =
  {
    Support.Remark.pass = "transform";
    kind = Support.Remark.Skipped;
    span;
    message =
      Printf.sprintf
        "transformation script skipped: auto-parallelization replaced this \
         statement's for-nest with a parallel loop the script cannot bind \
         to (%s); keeping the auto-parallelized loops untransformed"
        msg;
    details =
      [
        ("error", msg);
        ("probe", "script binds against the For-demoted sequential nest");
      ];
  }

let lower_hooks : Cminus.Lower.hooks =
  {
    (Cminus.Lower.no_hooks name) with
    Cminus.Lower.l_stmt =
      (fun t ext span ->
        match ext with
        | STransformAssign (lhs, rhs, ts) ->
            let stmts = Cminus.Lower.lower_assign t span lhs rhs in
            Some [ Cir.Ir.Site (Script { ts; span }, stmts) ]
        | _ -> None);
  }

(* --- the transform pass: apply each recorded script ----------------------------------- *)

let pass : Cir.Pass.t =
  {
    Cir.Pass.name = "transform";
    default_on = true;
    (* Snapshots here are per applied clause, not one per program: the
       pass records its own instead of taking the manager's. *)
    managed_snapshot = false;
    run =
      (fun ctx ~enabled p ->
        Cir.Pass.rewrite_sites
          (fun site payload ->
            match site with
            | Script { ts = []; _ } -> Some payload
            | Script { ts; span } when not enabled ->
                Support.Remark.emit ctx.Cir.Pass.remarks
                  ~pass:"transform" ~kind:Support.Remark.Skipped ~span
                  ~details:
                    [ ("script", String.concat ". " (List.map T.to_string ts)) ]
                  "transform pass disabled: transformation script left \
                   unapplied";
                Some payload
            | Script { ts; span } -> (
                let loc = Support.Pos.span_to_string span in
                let snap ~note body =
                  match ctx.Cir.Pass.sink with
                  | Some sink ->
                      Cir.Snapshot.record sink ~pass:"transform" ~label:loc
                        ~note (Cir.Emit.stmts body)
                  | None -> ()
                in
                (* Apply clause by clause — same semantics as [T.apply_all]
                   (in-order fold, then splat hoisting when any clause
                   vectorized) — so every bound clause gets its own remark
                   and [--dump-ir=transform] snapshot. *)
                let apply_clauses body =
                  snap ~note:"input (before script)" body;
                  let rec go body = function
                    | [] -> Ok body
                    | (T.Vectorize v as clause) :: rest
                      when T.vectorize_keeps_checks v body ->
                        Support.Remark.emit ctx.Cir.Pass.remarks
                          ~pass:"transform" ~kind:Support.Remark.Missed ~span
                          ~details:[ ("clause", T.to_string clause) ]
                          "transformation '%s' left loop '%s' scalar: its \
                           body holds a run-time check, which vector lanes \
                           would skip"
                          (T.to_string clause) v;
                        go body rest
                    | clause :: rest -> (
                        match T.apply clause body with
                        | Error _ as e -> e
                        | Ok body' ->
                            Support.Remark.emit ctx.Cir.Pass.remarks
                              ~pass:"transform" ~kind:Support.Remark.Applied
                              ~span
                              ~details:[ ("clause", T.to_string clause) ]
                              "transformation '%s' bound its loop indices \
                               and was applied"
                              (T.to_string clause);
                            snap ~note:(T.to_string clause) body';
                            go body' rest)
                  in
                  Result.map
                    (fun b ->
                      if
                        List.exists
                          (function T.Vectorize _ -> true | _ -> false)
                          ts
                      then T.hoist_splats b
                      else b)
                    (go body ts)
                in
                match apply_clauses payload with
                | Ok stmts' -> Some (Cir.Ir.fold_deep stmts')
                | Error msg -> (
                    (* The §V error check: indices must name generated
                       loops.  But if the script binds against a
                       For-demoted copy of the nest, the programmer's
                       indices were fine — it is auto-parallelization's
                       ParFor header that broke the pattern
                       (tile/interchange need a perfect For nest).  That
                       is a scheduling conflict, not a user error: keep
                       the auto-parallelized, untransformed loops and say
                       so with a warning instead of failing the build. *)
                    match
                      if ctx.Cir.Pass.auto_par_ran then
                        T.apply_all ts (demote_parfors payload)
                      else Error msg
                    with
                    | Ok _ ->
                        let r = skip_remark ~span msg in
                        Support.Remark.record ctx.Cir.Pass.remarks r;
                        ctx.Cir.Pass.warn (Support.Remark.to_diag r);
                        Some (Cir.Ir.fold_deep payload)
                    | Error _ -> Cir.Pass.err span "%s" msg))
            | _ -> None)
          p);
  }

(* --- AG metadata ------------------------------------------------------------------------ *)

let ag_spec : Ag.Wellformed.spec =
  let fp = Ag.Wellformed.full_prod ~owner:name in
  {
    sp_name = name;
    attrs = [];
    prods =
      [
        fp ~lhs:"Simple" ~children:[ "Postfix"; "E"; "TransformList" ]
          ~defines:[ "errors"; "type" ] ~forwards:true "st_transform";
        fp ~lhs:"TransformList" ~children:[ "Transform" ]
          ~defines:[ "errors" ] "tl_one";
        fp ~lhs:"TransformList" ~children:[ "TransformList"; "Transform" ]
          ~defines:[ "errors" ] "tl_cons";
        fp ~lhs:"Transform" ~children:[] ~defines:[ "errors" ] "tr_split";
        fp ~lhs:"Transform" ~children:[] ~defines:[ "errors" ] "tr_vectorize";
        fp ~lhs:"Transform" ~children:[] ~defines:[ "errors" ]
          "tr_parallelize";
        fp ~lhs:"Transform" ~children:[ "TIdList" ] ~defines:[ "errors" ]
          "tr_reorder";
        fp ~lhs:"TIdList" ~children:[] ~defines:[ "errors" ] "tidl_one";
        fp ~lhs:"TIdList" ~children:[ "TIdList" ] ~defines:[ "errors" ]
          "tidl_cons";
        fp ~lhs:"Transform" ~children:[] ~defines:[ "errors" ]
          "tr_interchange";
        fp ~lhs:"Transform" ~children:[] ~defines:[ "errors" ] "tr_unroll";
        fp ~lhs:"Transform" ~children:[] ~defines:[ "errors" ] "tr_tile";
      ];
  }
