(** Translation of the (typechecked) extended AST down to the plain-C IR
    (§II: the extended translator "translate[s] it down to plain C code").

    Extensions contribute lowering hooks exactly as they contribute
    checking hooks; the host lowers its own constructs and the host-
    packaged tuples.

    Reference counting (§III-B, and the memory management of §III-C) is
    inserted here when [rc] is enabled (the refptr extension's
    contribution): matrix handles are {e owned} by the variables they are
    bound to; assignments release the old referent and retain aliases;
    scope exits, [return], [break] and [continue] release what goes out of
    scope; statement-level temporaries (e.g. a discarded function result
    or an intermediate slice) are released at the end of their statement.
    The interpreter's per-run ledger of live cells turns these
    conventions into a machine-checked no-leak/no-double-free
    invariant. *)

open Cir.Ir
module S = Runtime.Scalar

exception Lower_error of string * Ast.span

let err span fmt =
  Format.kasprintf (fun m -> raise (Lower_error (m, span))) fmt

type scope = {
  mutable owned : string list;  (** matrix vars owned by this scope *)
  is_loop : bool;  (** break/continue release down to the loop scope *)
  mutable renamed : (string * string) list;
      (** source name -> C name, for the declarations in this scope whose
          C name differs from the source name (see {!declare}) *)
}

type t = {
  gensym : Support.Gensym.t;
  funcs : (string, Types.ty list * Types.ty) Hashtbl.t;
  hooks : hooks list;
  rc : bool;
  mutable scopes : scope list;
  mutable params : string list;
      (** matrix parameters: the caller may pass one matrix for several *)
  mutable nullable : string -> bool;
      (** whether a name of the function being lowered may hold NULL where
          it is read: no binding of it proves otherwise ({!nullable}) *)
  mutable borrowed : string list;
      (** matrix parameters the body never rebinds: the caller keeps
          ownership, so returning one retains it.  A rebound parameter is
          retained on entry and released on every exit, like a local. *)
  mutable pending : string list;
      (** owned statement-level temporaries awaiting release *)
  mutable extra_funcs : func list;
      (** functions synthesised by lowerings — e.g. matrixMap bodies are
          "lifted out into a new function so that the spawned threads can
          get direct access" (§III-A5) *)
  mutable cur_fun : Ast.fundef;
      (** the (checked) function currently being lowered — whole-function
          context for extension lowerings whose validity depends on other
          statements (e.g. the matrix extension's slice-copy analyses);
          synthesised helpers record its name as their [f_origin] so
          per-function reporting can attribute their cost to it *)
  warn : Support.Diag.t -> unit;
      (** sink for non-fatal lowering diagnostics (e.g. a transform script
          skipped because auto-parallelization changed the loop nest) *)
  remarks : Support.Remark.collector option;
      (** where lowering's remarks go; [None] when nobody asked *)
  mutable index_ctx : (expr * int) option;
      (** the subscript being lowered, for [end]: (matrix handle,
          dimension) *)
}

(** One extension's lowering contribution; [None] declines. *)
and hooks = {
  l_name : string;
  l_ty : t -> Ast.ext_ty -> Types.ty option;
  l_expr :
    t -> Ast.ext_expr -> Types.ty -> Ast.span -> (stmt list * expr) option;
  l_stmt : t -> Ast.ext_stmt -> Ast.span -> stmt list option;
  l_binop :
    t -> Ast.binop -> Ast.expr -> Ast.expr -> Types.ty -> Ast.span ->
    (stmt list * expr) option;
  l_unop : t -> Ast.unop -> Ast.expr -> Types.ty -> Ast.span -> (stmt list * expr) option;
  l_call :
    t -> string -> Ast.expr list -> Types.ty -> Ast.span ->
    expected:Types.ty option -> (stmt list * expr) option;
  l_subscript :
    t -> Ast.expr -> Ast.index list -> Types.ty -> Ast.span ->
    (stmt list * expr) option;
  l_subscript_assign :
    t -> Ast.expr -> Ast.index list -> Ast.expr -> at:Ast.span -> Ast.span ->
    stmt list option;
      (** [l_subscript_assign t base indices rhs ~at span]: [at] is the
          subscript's span, [span] the assignment's *)
}

let no_hooks name =
  {
    l_name = name;
    l_ty = (fun _ _ -> None);
    l_expr = (fun _ _ _ _ -> None);
    l_stmt = (fun _ _ _ -> None);
    l_binop = (fun _ _ _ _ _ _ -> None);
    l_unop = (fun _ _ _ _ _ -> None);
    l_call = (fun _ _ _ _ _ ~expected:_ -> None);
    l_subscript = (fun _ _ _ _ _ -> None);
    l_subscript_assign = (fun _ _ _ _ ~at:_ _ -> None);
  }

let first_hook f t = List.find_map (fun h -> f h) t.hooks
let fresh t hint = Support.Gensym.fresh t.gensym hint

let ety (e : Ast.expr) : Types.ty =
  match e.Ast.ety with
  | Some ty -> ty
  | None ->
      err e.Ast.espan "internal: expression reached lowering without a type"

let is_mat = function Types.TMat _ -> true | _ -> false

(* --- ownership helpers ------------------------------------------------------ *)

let push_scope ?(is_loop = false) t =
  t.scopes <- { owned = []; is_loop; renamed = [] } :: t.scopes

let own t name = (List.hd t.scopes).owned <- name :: (List.hd t.scopes).owned

(** [maybe_null t e] — matrix operand [e] may be NULL where an operation
    reads its extents: it is a call's result, or a name whose bindings do
    not prove it non-NULL. *)
let maybe_null t (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Ident v -> t.nullable v
  | Ast.CallE (f, _) -> Hashtbl.mem t.funcs f
  | _ -> false

(** The C name of source variable [v] where it is read here. *)
let c_name t v =
  Option.value ~default:v
    (List.find_map (fun sc -> List.assoc_opt v sc.renamed) t.scopes)

(* [declare t name] — the C name of a declaration of [name] in the
   current scope.  Releases name C variables, and an early exit releases
   what every enclosing scope owns: a declaration that would hide an
   owned C variable gets a fresh name, so the outer binding can still be
   named from inside.  Any other declaration keeps its name (hiding a
   renamed outer one).  Call after lowering the initialiser, which still
   sees the outer binding. *)
let declare t name =
  let cname =
    if List.exists (fun sc -> List.mem name sc.owned) t.scopes then
      fresh t name
    else name
  in
  if cname <> name || c_name t name <> name then
    (List.hd t.scopes).renamed <- (name, cname) :: (List.hd t.scopes).renamed;
  cname

(** [binding t names f] — [f ()] with [names] (e.g. a generator's
    indices, bound by an extension's lowering under their source names)
    hiding any renamed declaration of the same names. *)
let binding t names f =
  push_scope t;
  (List.hd t.scopes).renamed <- List.map (fun n -> (n, n)) names;
  let r = f () in
  t.scopes <- List.tl t.scopes;
  r

(** Remember a statement-level owned temporary (also used by extension
    lowerings for intermediate slices etc.). *)
let add_pending t name = t.pending <- name :: t.pending

(** Consume ownership of [e] if it is a pending temp: returns true when the
    callee now owns the value without an extra retain. *)
let consume_pending t (e : expr) =
  match e with
  | Var v when List.mem v t.pending ->
      t.pending <- List.filter (fun x -> x <> v) t.pending;
      true
  | _ -> false

(* RC traffic accounting (the per-function "rc" remarks) lives in the
   pipeline's rc reporting pass, which counts the operations present in
   the FINAL program — the baseline lowering emits RC ops inside decision
   sites that later passes may delete. *)
let rc_dec t e = if t.rc then [ RcDec e ] else []
let rc_inc t e = if t.rc then [ RcInc e ] else []

let drain_pending t =
  let rel = List.concat_map (fun v -> rc_dec t (Var v)) t.pending in
  t.pending <- [];
  rel

(** [own_pending t f] runs [f] with no temporary pending and returns
    its result with the releases of the temporaries [f] left pending;
    those pending before are pending again after.  A loop body that
    makes temporaries releases them in the loop, where they are in
    scope. *)
let own_pending t f =
  let outer = t.pending in
  t.pending <- [];
  let r = f () in
  let release = drain_pending t in
  t.pending <- outer;
  (r, release)

let pop_scope t =
  let sc = List.hd t.scopes in
  t.scopes <- List.tl t.scopes;
  List.concat_map (fun v -> rc_dec t (Var v)) sc.owned

(* Releases for early exits: all owned vars in scopes down to (and
   including) the innermost loop scope for break/continue, or the whole
   stack for return. *)
let release_for_break t =
  let rec go = function
    | [] -> []
    | sc :: rest ->
        let this = List.concat_map (fun v -> rc_dec t (Var v)) sc.owned in
        if sc.is_loop then this else this @ go rest
  in
  go t.scopes

let release_for_return t ~except =
  List.concat_map
    (fun sc ->
      List.concat_map
        (fun v -> if List.mem v except then [] else rc_dec t (Var v))
        sc.owned)
    t.scopes

(* Variables whose ownership transfers to the caller through the returned
   value: the value itself, or matrix fields of a returned tuple. *)
let rec transfer_vars (rty : Types.ty) (ee : expr) : string list =
  match (rty, ee) with
  | Types.TMat _, Var v -> [ v ]
  | Types.TTuple ts, TupleE es when List.length ts = List.length es ->
      List.concat (List.map2 transfer_vars ts es)
  | _ -> []

(* --- coercions ----------------------------------------------------------------- *)

let coerce ~from ~to_ (e : expr) : expr =
  match (from, to_) with
  | Types.TInt, Types.TFloat -> Unop (FloatOfInt, e)
  | Types.TFloat, Types.TInt -> Unop (IntOfFloat, e)
  | _ -> e

let resolve_ty t (te : Ast.ty_expr) span : Types.ty =
  let rec go = function
    | Ast.TyInt -> Types.TInt
    | Ast.TyFloat -> Types.TFloat
    | Ast.TyBool -> Types.TBool
    | Ast.TyVoid -> Types.TVoid
    | Ast.TyTuple ts -> Types.TTuple (List.map go ts)
    | Ast.TyExt ext -> (
        match first_hook (fun h -> h.l_ty t ext) t with
        | Some ty -> ty
        | None -> err span "no extension lowers this type")
  in
  go te

(* --- expressions ------------------------------------------------------------------ *)

let rec lower_expr ?expected t (e : Ast.expr) : stmt list * expr =
  let span = e.Ast.espan in
  let ty = ety e in
  match e.Ast.e with
  | Ast.IntLit i -> ([], Int i)
  | Ast.FloatLit f -> ([], Float f)
  | Ast.BoolLit b -> ([], Bool b)
  | Ast.StrLit s -> ([], Str s)
  | Ast.Ident v -> ([], Var (c_name t v))
  | Ast.Bin (op, a, b) -> (
      let ta = ety a and tb = ety b in
      if Types.is_scalar ta && Types.is_scalar tb && host_binop_ok op then
        let sa, ea = lower_expr t a in
        (* [b]'s temporaries apart from [a]'s: a short-circuit releases
           them where it evaluates [b] *)
        let outer = t.pending in
        t.pending <- [];
        let sb, eb = lower_expr t b in
        let target =
          match op with
          | Ast.BArith _ -> ty
          | _ -> (
              match Types.promote ta tb with Some p -> p | None -> ta)
        in
        let ea = coerce ~from:ta ~to_:target ea in
        let eb = coerce ~from:tb ~to_:target eb in
        match op with
        | Ast.BLogic o when sb <> [] ->
            (* [b]'s statements run only where C evaluates [b]:
               [c = a; if (c) { sb; c = b; }] for [&&], [if (!c)] for
               [||], releasing [b]'s temporaries in that branch. *)
            let release = drain_pending t in
            t.pending <- outer;
            let c = fresh t "cond" in
            let evaluates_b =
              match o with S.And -> Var c | S.Or -> Unop (Not, Var c)
            in
            ( sa
              @ [
                  Decl (CBool, c, Some ea);
                  If (evaluates_b, sb @ (Assign (LVar c, eb) :: release), []);
                ],
              Var c )
        | _ ->
            t.pending <- t.pending @ outer;
            let cop =
              match op with
              | Ast.BArith o -> Arith o
              | Ast.BCmp o -> Cmp o
              | Ast.BLogic o -> Logic o
              | Ast.BExt _ -> assert false
            in
            (sa @ sb, Binop (cop, ea, eb))
      else
        match first_hook (fun h -> h.l_binop t op a b ty span) t with
        | Some r -> r
        | None -> err span "no extension lowers this operator application")
  | Ast.Un (op, a) -> (
      let ta = ety a in
      if Types.is_scalar ta then
        let sa, ea = lower_expr t a in
        (sa, Unop ((match op with Ast.UNeg -> Neg | Ast.UNot -> Not), ea))
      else
        match first_hook (fun h -> h.l_unop t op a ty span) t with
        | Some r -> r
        | None -> err span "no extension lowers this unary operator")
  | Ast.Cast (_, a) ->
      let sa, ea = lower_expr t a in
      (sa, coerce ~from:(ety a) ~to_:ty ea)
  | Ast.CallE (name, args) -> (
      match Hashtbl.find_opt t.funcs name with
      | Some (ptys, rty) ->
          let stmts, argv =
            List.fold_left2
              (fun (acc_s, acc_a) a pty ->
                let sa, ea = lower_expr t a in
                let ea = coerce ~from:(ety a) ~to_:pty ea in
                (acc_s @ sa, acc_a @ [ ea ]))
              ([], []) args ptys
          in
          let call = Call (name, argv) in
          if is_mat rty || contains_mat rty then begin
            (* bind the owned result so it can be released if discarded *)
            let tmp = fresh t "call" in
            add_pending t tmp;
            (stmts @ [ Decl (Types.to_ctype rty, tmp, Some call) ], Var tmp)
          end
          else (stmts, call)
      | None -> (
          match
            first_hook (fun h -> h.l_call t name args ty span ~expected) t
          with
          | Some r -> r
          | None -> err span "no extension lowers call to '%s'" name))
  | Ast.TupleLit es ->
      let stmts, parts =
        List.fold_left
          (fun (acc_s, acc_e) x ->
            let sx, ex = lower_expr t x in
            (acc_s @ sx, acc_e @ [ ex ]))
          ([], []) es
      in
      (stmts, TupleE parts)
  | Ast.Subscript (base, indices) -> (
      match
        first_hook (fun h -> h.l_subscript t base indices ty span) t
      with
      | Some r -> r
      | None -> err span "no extension lowers subscripting")
  | Ast.ExtE ext -> (
      match first_hook (fun h -> h.l_expr t ext ty span) t with
      | Some r -> r
      | None -> err span "no extension lowers this expression")

and host_binop_ok = function Ast.BExt _ -> false | _ -> true

and contains_mat = function
  | Types.TMat _ -> true
  | Types.TTuple ts -> List.exists contains_mat ts
  | _ -> false

(* --- statements --------------------------------------------------------------------- *)

(* Every variable [stmts] reads or assigns. *)
let names_in stmts =
  let acc = ref [] in
  let rec target = function LVar v -> v | LField (lv, _) -> target lv in
  ignore
    (map_stmts
       (function
         | Var v as e ->
             acc := v :: !acc;
             e
         | e -> e)
       (function
         | Assign (lv, _) as s ->
             acc := target lv :: !acc;
             s
         | s -> s)
       stmts);
  !acc

(* The names a loop body declares where its loop-level statements run:
   at its top level or in nested branches and blocks, not inside nested
   loops. *)
let rec visible_decls body =
  List.concat_map
    (fun (st : Ast.stmt) ->
      match st.Ast.s with
      | Ast.DeclS (_, name, _) -> [ name ]
      | Ast.IfS (_, a, b) -> visible_decls a @ visible_decls b
      | Ast.BlockS b -> visible_decls b
      | _ -> [])
    body

(* The matrix parameters in [params] that [body] rebinds: assigned a
   matrix ([g = h;], not the scalar fill [g = 0;]) or named in a
   destructuring pattern. *)
let rebound params body =
  let rec stmt (st : Ast.stmt) =
    match st.Ast.s with
    | Ast.AssignS ({ Ast.e = Ast.Ident v; _ }, rhs)
      when List.mem v params && not (Types.is_scalar (ety rhs)) ->
        [ v ]
    | Ast.AssignS ({ Ast.e = Ast.TupleLit parts; _ }, _) ->
        List.filter_map
          (fun (p : Ast.expr) ->
            match p.Ast.e with
            | Ast.Ident v when List.mem v params -> Some v
            | _ -> None)
          parts
    | Ast.IfS (_, a, b) -> List.concat_map stmt (a @ b)
    | Ast.WhileS (_, b) | Ast.BlockS b -> List.concat_map stmt b
    | Ast.ForS (i, _, s, b) ->
        List.concat_map stmt (Option.to_list i @ Option.to_list s @ b)
    | _ -> []
  in
  let hits = List.concat_map stmt body in
  List.filter (fun p -> List.mem p hits) params

(* Whether a name [body] binds may hold NULL where it is read, by its
   bindings anywhere in [body]: a matrix parameter in [params], or a name
   declared without an initialiser, assigned a call's result or a part
   of a destructured tuple, or bound to a name that may.  A name bound
   only to fresh matrices cannot.  An extension statement that forwards
   to no host statement may bind any name. *)
let nullable t params body =
  let seeds = ref params and copies = ref [] and opaque = ref false in
  let bind v (e : Ast.expr) =
    match e.Ast.e with
    | Ast.CallE (f, _) when Hashtbl.mem t.funcs f -> seeds := v :: !seeds
    | Ast.Ident y -> copies := (v, y) :: !copies
    | _ -> ()
  in
  let rec stmt (st : Ast.stmt) =
    match st.Ast.s with
    | Ast.DeclS (_, v, None) -> seeds := v :: !seeds
    | Ast.DeclS (_, v, Some e) | Ast.AssignS ({ Ast.e = Ast.Ident v; _ }, e) ->
        bind v e
    | Ast.AssignS ({ Ast.e = Ast.TupleLit parts; _ }, _) ->
        List.iter
          (fun (p : Ast.expr) ->
            match p.Ast.e with Ast.Ident v -> seeds := v :: !seeds | _ -> ())
          parts
    | Ast.IfS (_, a, b) -> List.iter stmt (a @ b)
    | Ast.WhileS (_, b) | Ast.BlockS b -> List.iter stmt b
    | Ast.ForS (i, _, s, b) ->
        List.iter stmt (Option.to_list i @ Option.to_list s @ b)
    | Ast.ExtS x -> (
        match Ast.forward_stmt x with
        | Some s -> stmt { st with Ast.s }
        | None -> opaque := true)
    | _ -> ()
  in
  List.iter stmt body;
  let rec close names =
    match
      List.find_opt
        (fun (v, y) -> List.mem y names && not (List.mem v names))
        !copies
    with
    | Some (v, _) -> close (v :: names)
    | None -> names
  in
  let names = close !seeds in
  fun v -> !opaque || List.mem v names

let rec lower_stmt t (st : Ast.stmt) : stmt list =
  let span = st.Ast.sspan in
  let stmts =
    match st.Ast.s with
    | Ast.DeclS (te, name, init) -> (
        let ty = resolve_ty t te span in
        let cty = Types.to_ctype ty in
        match init with
        | None ->
            (* Matrices must be initialised before use; plain decl is fine
               for scalars, and for matrices it is a NULL handle the
               checker allows only when every path assigns first (the
               paper's programs follow this; see Fig 8's `trough`).  The
               variable still owns whatever it ends up holding. *)
            let name = declare t name in
            if is_mat ty then own t name;
            [ Decl (cty, name, None) ]
        | Some ie ->
            let si, ei = lower_expr ~expected:ty t ie in
            let ei = coerce ~from:(ety ie) ~to_:ty ei in
            let name = declare t name in
            let retain =
              if is_mat ty && t.rc then
                if consume_pending t ei then []
                else rc_inc t (Var name)
              else []
            in
            if is_mat ty then own t name;
            (si @ [ Decl (cty, name, Some ei) ]) @ retain)
    | Ast.AssignS (lhs, rhs) -> lower_assign t span lhs rhs
    | Ast.IfS (c, a, b) ->
        (* the condition's temporaries are released on both paths *)
        let sc, ec = lower_expr t c in
        let cond_drain = drain_pending t in
        sc
        @ [ If (ec, cond_drain @ lower_block t a, cond_drain @ lower_block t b) ]
    | Ast.WhileS (c, body) ->
        let sc, ec = lower_expr t c in
        let cond_drain = drain_pending t in
        if sc = [] && cond_drain = [] then
          [ While (ec, lower_block ~is_loop:true t body) ]
        else
          (* The condition needs prelude statements (e.g. matrix element
             loads bound to temps): evaluate them at the top of every
             iteration — while (1) { prelude; if (!c) break; body } —
             releasing any condition temporaries on both paths. *)
          let body' = lower_block ~is_loop:true t body in
          [
            While
              ( Bool true,
                sc
                @ [ If (Unop (Not, ec), cond_drain @ [ Break ], cond_drain) ]
                @ body' );
          ]
    | Ast.ForS (init, cond, step, body) ->
        push_scope t;
        let si = match init with Some s -> lower_stmt t s | None -> [] in
        let sc, ec =
          match cond with
          | Some c -> lower_expr t c
          | None -> ([], Bool true)
        in
        let cond_drain = drain_pending t in
        let sstep = match step with Some s -> lower_stmt t s | None -> [] in
        (* The step binds the loop's variables.  C semantics: `continue`
           in a for-loop still runs the step.  The lowering appends the
           step at the bottom of the while body, which a continue would
           skip — so loop-level continues (not those bound to inner
           loops) are rewritten to run the step first.  Both places are
           inside the body's scope, so when the body declares a name the
           step uses, the step runs instead at the top of every iteration
           but the first, before the body's declarations, where the
           fall-through and every continue reach it. *)
        let shadowed =
          List.exists
            (fun v -> List.mem (c_name t v) (names_in sstep))
            (visible_decls body)
        in
        let rec patch_continue (st : Ast.stmt) : Ast.stmt =
          match st.Ast.s with
          | Ast.ContinueS when step <> None ->
              { st with Ast.s = Ast.BlockS [ Option.get step; st ] }
          | Ast.IfS (c, a, b) ->
              { st with Ast.s = Ast.IfS (c, List.map patch_continue a,
                                         List.map patch_continue b) }
          | Ast.BlockS b ->
              { st with Ast.s = Ast.BlockS (List.map patch_continue b) }
          | _ -> st (* continues inside nested loops bind to those loops *)
        in
        let body = if shadowed then body else List.map patch_continue body in
        let body' = lower_block ~is_loop:true t body in
        let release = pop_scope t in
        let test = [ If (Unop (Not, ec), cond_drain @ [ Break ], cond_drain) ] in
        let loop =
          if shadowed then
            let first = fresh t "first" in
            [
              Decl (CBool, first, Some (Bool true));
              While
                ( Bool true,
                  (If (Var first, [ Assign (LVar first, Bool false) ], sstep)
                  :: sc)
                  @ test @ body' );
            ]
          else if sc = [] && cond_drain = [] then [ While (ec, body' @ sstep) ]
          else [ While (Bool true, sc @ test @ body' @ sstep) ]
        in
        (* C scopes a declaration in the init to the loop: brace it, so it
           neither clobbers an outer variable of the same name nor clashes
           with a sibling loop's. *)
        (match init with
        | Some { Ast.s = Ast.DeclS _; _ } -> [ Block (si @ loop @ release) ]
        | _ -> si @ loop @ release)
    | Ast.ReturnS None -> release_for_return t ~except:[] @ [ Return None ]
    | Ast.ReturnS (Some e) ->
        let se, ee = lower_expr t e in
        let rty = ety e in
        (* The return value must be computed BEFORE the scope releases run
           (it may read matrices that the releases free), so any non-trivial
           expression is bound to a temporary first. *)
        let bind, ret_expr =
          match ee with
          | Var _ | Int _ | Float _ | Bool _ -> ([], ee)
          | _ ->
              let tmp = fresh t "ret" in
              ([ Decl (Types.to_ctype rty, tmp, Some ee) ], Var tmp)
        in
        (* Ownership of every matrix reachable from the returned value
           transfers to the caller: borrowed parameters are retained,
           pending temporaries stop being drained, scope-owned locals stop
           being released.  Decided on the original expression [ee], whose
           variables name the transferred handles. *)
        let except = ref [] and retain = ref [] in
        if contains_mat rty then
          List.iter
            (fun v ->
              if List.mem v t.borrowed then retain := !retain @ rc_inc t (Var v)
              else if List.mem v t.pending then
                t.pending <- List.filter (fun x -> x <> v) t.pending
              else except := v :: !except)
            (transfer_vars rty ee);
        (* converted to the declared type as an initialiser is: C does it
           implicitly, the interpreter only when told *)
        let fty = resolve_ty t t.cur_fun.Ast.ret t.cur_fun.Ast.fspan in
        se @ bind @ !retain @ drain_pending t
        @ release_for_return t ~except:!except
        @ [ Return (Some (coerce ~from:rty ~to_:fty ret_expr)) ]
    | Ast.BreakS -> release_for_break t @ [ Break ]
    | Ast.ContinueS -> release_for_break t @ [ Continue ]
    | Ast.ExprStmt e ->
        let se, ee = lower_expr t e in
        (* Pure values are dropped; effectful calls are kept. *)
        let discard =
          match ee with
          | Int _ | Float _ | Bool _ | Var _ -> []
          | ee -> [ ExprS ee ]
        in
        se @ discard
    | Ast.BlockS body -> [ Block (lower_block t body) ]
    | Ast.ExtS ext -> (
        match first_hook (fun h -> h.l_stmt t ext span) t with
        | Some ss -> ss
        | None -> err span "no extension lowers this statement")
  in
  (* Wrap the whole lowered statement (including temp releases) in a
     provenance block.  [Located] is transparent to emission, scoping and
     transformation matching, so this is observable only to the profiler
     and the [#line] emitter. *)
  match stmts @ drain_pending t with
  | [] -> []
  | ss -> [ Located (span, ss) ]

and lower_block ?(is_loop = false) t body : stmt list =
  push_scope ~is_loop t;
  let stmts = List.concat_map (lower_stmt t) body in
  stmts @ pop_scope t

and lower_assign t span (lhs : Ast.expr) (rhs : Ast.expr) : stmt list =
  match lhs.Ast.e with
  | Ast.Ident v when is_mat (ety lhs) && Types.is_scalar (ety rhs) ->
      (* Whole-matrix scalar fill: m = 0 writes every element (the matrix
         extension's overloaded assignment). *)
      let v = c_name t v in
      let elem =
        match ety lhs with
        | Types.TMat (e, _) -> e
        | _ -> assert false
      in
      let sr, er = lower_expr t rhs in
      let er = coerce ~from:(ety rhs) ~to_:(Types.elem_ty elem) er in
      let i = fresh t "i" in
      sr
      @ [
          For
            {
              index = i;
              bound = MSize (Var v);
              body = [ MSetFlat (Var v, Var i, er) ];
              prov = Some span;
              dynamic = false;
            };
        ]
  | Ast.Ident v ->
      let v = c_name t v in
      let ty = ety lhs in
      let sr, er = lower_expr ~expected:ty t rhs in
      let er = coerce ~from:(ety rhs) ~to_:ty er in
      if is_mat ty && t.rc then
        let retain = if consume_pending t er then [] else rc_inc t er in
        (* Release the old referent before rebinding (retain-then-release
           order guards the self-assignment m = m). *)
        sr @ retain @ rc_dec t (Var v) @ [ Assign (LVar v, er) ]
      else sr @ [ Assign (LVar v, er) ]
  | Ast.Subscript (base, indices) -> (
      match
        first_hook
          (fun h ->
            h.l_subscript_assign t base indices rhs ~at:lhs.Ast.espan span)
          t
      with
      | Some ss -> ss
      | None -> err span "no extension lowers subscript assignment")
  | Ast.TupleLit parts ->
      (* host-packaged tuples: destructuring assignment (§III-B) *)
      let sr, er = lower_expr t rhs in
      (* An owned temporary tuple transfers its inner references to the
         assigned variables; a tuple aliased from elsewhere must retain
         them. *)
      let transferred = consume_pending t er in
      let tmp = fresh t "tup" in
      let decl = Decl (Types.to_ctype (ety rhs), tmp, Some er) in
      let assigns =
        List.concat
          (List.mapi
             (fun i (p : Ast.expr) ->
               match p.Ast.e with
               | Ast.Ident v ->
                   let v = c_name t v in
                   let pty = ety p in
                   if is_mat pty && t.rc then
                     rc_dec t (Var v)
                     @ [ Assign (LVar v, Field (Var tmp, i)) ]
                     @ (if transferred then [] else rc_inc t (Var v))
                   else [ Assign (LVar v, Field (Var tmp, i)) ]
               | _ ->
                   err p.Ast.espan
                     "only variables can appear in a destructuring pattern")
             parts)
      in
      sr @ (decl :: assigns)
  | _ -> err span "unsupported assignment target"

(* --- programs -------------------------------------------------------------------------- *)

let lower_fundef t (f : Ast.fundef) : func =
  t.scopes <- [];
  t.pending <- [];
  t.cur_fun <- f;
  push_scope t;
  t.params <-
    List.filter_map
      (fun (te, name) ->
        match resolve_ty t te f.Ast.fspan with
        | Types.TMat _ -> Some name
        | _ -> None)
      f.Ast.params;
  t.nullable <- nullable t t.params f.Ast.body;
  let owned = if t.rc then rebound t.params f.Ast.body else [] in
  t.borrowed <- List.filter (fun p -> not (List.mem p owned)) t.params;
  List.iter (own t) owned;
  let body =
    List.concat_map (fun p -> rc_inc t (Var p)) owned
    @ List.concat_map (lower_stmt t) f.Ast.body
  in
  let release = pop_scope t in
  let needs_trailing_release = not (ends_with_return body) in
  {
    f_name = f.Ast.fname;
    f_params =
      List.map
        (fun (te, name) -> (Types.to_ctype (resolve_ty t te f.Ast.fspan), name))
        f.Ast.params;
    f_ret = Types.to_ctype (resolve_ty t f.Ast.ret f.Ast.fspan);
    f_body = (if needs_trailing_release then body @ release else body);
    f_span = Some f.Ast.fspan;
    f_origin = None;
  }

(** [lower_program hooks ~rc prog] — translate a checked program to the
    {e baseline} CIR: every optimization decision (with-loop fusion,
    slice-copy aliasing, auto-parallelization, transform scripts) is
    recorded as a [Site] annotation around the unoptimized statements it
    would rewrite; the CIR pass pipeline consumes the sites.  [rc]
    enables reference-count insertion (the refptr extension); lowering's
    own remarks go to [remarks]. *)
let lower_program ?(warn = fun _ -> ()) ?remarks (hooks : hooks list)
    ~(rc : bool) (prog : Ast.program) : program =
  let t =
    {
      gensym = Support.Gensym.create ();
      funcs = Hashtbl.create 16;
      hooks;
      rc;
      scopes = [];
      params = [];
      nullable = (fun _ -> false);
      borrowed = [];
      pending = [];
      extra_funcs = [];
      cur_fun =
        {
          Ast.fname = "";
          params = [];
          ret = Ast.TyVoid;
          body = [];
          fspan = Support.Pos.dummy_span;
        };
      warn;
      remarks;
      index_ctx = None;
    }
  in
  List.iter
    (fun (f : Ast.fundef) ->
      Hashtbl.replace t.funcs f.Ast.fname
        ( List.map (fun (te, _) -> resolve_ty t te f.Ast.fspan) f.Ast.params,
          resolve_ty t f.Ast.ret f.Ast.fspan ))
    prog;
  (* Bind before reading [extra_funcs]: it is filled during lowering. *)
  let user_funcs = List.map (lower_fundef t) prog in
  let funcs = user_funcs @ t.extra_funcs in
  let main =
    if List.exists (fun (f : Ast.fundef) -> f.Ast.fname = "main") prog then
      "main"
    else
      match prog with
      | f :: _ -> f.Ast.fname
      | [] -> "main"
  in
  { funcs; main }
