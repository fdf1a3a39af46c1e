(** The lowered C-like intermediate representation — the "plain (parallel)
    C code" every extension translates down to (§II).

    Matrix constructs arrive here as explicit loop nests over flat
    row-major buffers plus a small runtime API (allocation, flat get/set,
    dimension queries, reference counting) — exactly the code the paper
    shows in Fig 3.  Loops are structured ([For] with named index, 0-based,
    exclusive upper bound, step 1) so the §V transformations can find and
    rewrite them; [ParFor] marks a loop dispatched to the persistent
    worker pool; the [Vec*] forms are the simulated-SSE operations that
    vectorization introduces (Fig 11). *)

type ctype =
  | CInt
  | CFloat
  | CBool
  | CVoid
  | CMat of Runtime.Ndarray.elem * int  (** element type, static rank *)
  | CVec  (** SSE vector register of [Simd.default_width] f32 lanes *)
  | CTuple of ctype list  (** lowered to a C struct *)

let rec ctype_name = function
  | CInt -> "int"
  (* mm_float is C double (mm_runtime.h): the interpreter evaluates float
     arithmetic in OCaml doubles, and native results must match bit-for-bit. *)
  | CFloat -> "mm_float"
  | CBool -> "bool"
  | CVoid -> "void"
  | CMat (e, r) ->
      Printf.sprintf "mm_mat_%s%d" (Runtime.Ndarray.elem_name e) r
  | CVec -> "__m128"
  | CTuple ts ->
      "struct_" ^ String.concat "_" (List.map ctype_name ts)

type binop =
  | Arith of Runtime.Scalar.arith
  | Cmp of Runtime.Scalar.cmp
  | Logic of Runtime.Scalar.logic

type unop = Neg | Not | IntOfFloat | FloatOfInt

type expr =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string  (** file-path literals for readMatrix/writeMatrix *)
  | Var of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Min of expr * expr  (** integer minimum (tile boundary bounds) *)
  | Call of string * expr list
  | TupleE of expr list
  | Field of expr * int
  (* --- matrix runtime API ------------------------------------------- *)
  | MAlloc of { elem : Runtime.Ndarray.elem; dims : expr list; zeroed : bool }
      (** a fresh matrix of extents [dims]: its payload starts zeroed only
          when [zeroed] ([init], a genarray whose generator may leave
          elements unset); otherwise the code that follows writes every
          element before anything reads one *)
  | MView of {
      elem : Runtime.Ndarray.elem;
      m : expr;
      offset : expr;
      dims : expr list;
    }
      (** a borrowed view of extents [dims] of [m]'s payload, its elements
          from flat offset [offset] on: it allocates nothing, is counted in
          no ledger, and releasing it is a fault *)
  | MGetFlat of expr * expr  (** buffer read: matrix, flat offset *)
  | MDim of expr * expr  (** mm_dim(m, d); d is usually a static literal *)
  | MSize of expr  (** mm_size(m): product of extents *)
  | MRead of expr  (** readMatrix(path) *)
  (* --- simulated SSE -------------------------------------------------- *)
  | VecSplat of expr  (** _mm_set1_ps *)
  | VecGather of expr * expr * expr
      (** (matrix, base offset, lane stride); stride 1 = _mm_loadu_ps *)
  | VecBin of Runtime.Scalar.arith * expr * expr
  | VecHsum of expr  (** horizontal sum to a float *)
  | Checked of check list * expr
      (** [e], once every check holds, in order: a source subscript's
          index checks around its flat offset *)

(** A runtime check that lowering writes once for both backends.  A
    failing check ends the run with one report at its span: the
    interpreter raises it, the emitted C prints it as a [__mm_fault]
    line and exits 71. *)
and check =
  | Bound of { m : expr; dim : int; index : expr; span : Support.Pos.span }
      (** [m] is not NULL and [0 <= index < mm_dim(m, dim)] *)
  | Same of { what : string; a : expr; b : expr; span : Support.Pos.span }
      (** two extents an operation needs to agree: [a = b] *)
  | Null of { m : expr; span : Support.Pos.span }
      (** [m] is not NULL: an operation is about to read its extents *)
  | Dim of { m : expr; rank : int; index : expr; span : Support.Pos.span }
      (** a computed [dimSize] dimension names one of [m]'s:
          [0 <= index < rank], [m]'s static rank *)

(** The report of a failed check: both backends print exactly this text
    (mm_runtime.c words the same formats). *)
let null_message = "use of an uninitialised matrix"

let bound_message ~index ~dim ~extent =
  Printf.sprintf "index %d out of bounds for dimension %d of extent %d" index
    dim extent

let same_message ~what a b = Printf.sprintf "%s: %d against %d" what a b

(** The report of a release of an {!MView}, which no correct program
    makes. *)
let view_release_message = "release of a borrowed matrix view"

type lvalue = LVar of string | LField of lvalue * int

type site = ..
(** Open payload type for {!Site} annotations: the lowering records a
    decision *site* (a fusable result copy, an aliasable slice copy, a
    parallelizable loop, a pending transformation script) around the
    baseline statements it emitted for it, and the corresponding CIR pass
    later consumes the site — rewriting or splicing the wrapped
    statements and emitting the optimization remark.  Constructors are
    declared by whichever extension owns the decision (the matrix
    extension's live in [Matrix.Sites], the transform extension's in its
    own module), so this module stays extension-agnostic. *)

type stmt =
  | Decl of ctype * string * expr option
  | Assign of lvalue * expr
  | MSetFlat of expr * expr * expr  (** matrix, flat offset, value *)
  | VecScatter of expr * expr * expr * expr
      (** (matrix, base, stride, vector); stride 1 = _mm_storeu_ps *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of loop
  | ParFor of loop  (** dispatched to the §III-C worker pool *)
  | ExprS of expr
  | Return of expr option
  | Break
  | Continue
  | RcInc of expr  (** refcount increment on a matrix handle *)
  | RcDec of expr
  | MWrite of expr * expr  (** writeMatrix(path, m) *)
  | Check of check
  | Comment of string  (** carried into the emitted C *)
  | Block of stmt list  (** braced C scope (shadowing, lifetimes) *)
  | Spawn of lvalue option * string * expr list
      (** Cilk-style [x = spawn f(args)] (§VIII future work): the call runs
          concurrently; the assignment lands at the next [Sync] *)
  | Sync  (** Cilk sync: wait for every spawn of the current function *)
  | Located of Support.Pos.span * stmt list
      (** Provenance wrapper: the statements came from this source span.
          NOT a scope — declarations inside stay visible to later siblings;
          the emitter prints the inner statements inline (plus an optional
          [#line] directive) and the interpreter executes them in the
          current environment. *)
  | Site of site * stmt list
      (** Optimization-decision wrapper produced by the baseline lowering
          and consumed by the CIR passes.  Like [Located], NOT a scope:
          emission, interpretation and transformation matching treat the
          wrapped statements as spliced inline.  A completed pipeline run
          leaves no [Site] nodes behind — every registered pass splices
          (or rewrites) the sites it owns, enabled or not. *)

and loop = {
  index : string;
  bound : expr;
  body : stmt list;
  prov : Support.Pos.span option;
      (** source span of the matrix expression / statement this loop was
          lowered from; transformations preserve (and merge) it *)
  dynamic : bool;
      (** as a [ParFor], hand out one iteration at a time (OpenMP's
          [schedule(dynamic, 1)]): its iterations differ widely in cost *)
}
(** Canonical loop: [for (int index = 0; index < bound; index++)]. The
    lowerings always produce this form; transformations rely on it. *)

type func = {
  f_name : string;
  f_params : (ctype * string) list;
  f_ret : ctype;
  f_body : stmt list;
  f_span : Support.Pos.span option;
      (** span of the source function definition, where the rc reporting
          pass anchors its per-function remark; for a lifted matrixMap
          body, the matrixMap's span.  Emitted code outside every located
          statement names it when it fails. *)
  f_origin : string option;
      (** for functions synthesised by a lowering (lifted matrixMap
          bodies): the user function whose lowering introduced them.
          Reference-count accounting attributes their RC traffic to the
          origin, matching where the programmer wrote the construct. *)
}

type program = { funcs : func list; main : string }

(* ----- traversal / rewriting utilities used by the transformations ----- *)

(** [map_expr f e] — bottom-up expression rewrite. *)
let rec map_expr f e =
  let r = map_expr f in
  let e' =
    match e with
    | Int _ | Float _ | Bool _ | Str _ | Var _ -> e
    | Binop (op, a, b) -> Binop (op, r a, r b)
    | Unop (op, a) -> Unop (op, r a)
    | Min (a, b) -> Min (r a, r b)
    | Call (n, args) -> Call (n, List.map r args)
    | TupleE es -> TupleE (List.map r es)
    | Field (a, i) -> Field (r a, i)
    | MAlloc a -> MAlloc { a with dims = List.map r a.dims }
    | MView v ->
        let dims = List.map r v.dims in
        MView { v with m = r v.m; offset = r v.offset; dims }
    | MGetFlat (m, o) -> MGetFlat (r m, r o)
    | MDim (m, d) -> MDim (r m, r d)
    | MSize m -> MSize (r m)
    | MRead p -> MRead (r p)
    | VecSplat a -> VecSplat (r a)
    | VecGather (m, b, s) -> VecGather (r m, r b, r s)
    | VecBin (op, a, b) -> VecBin (op, r a, r b)
    | VecHsum a -> VecHsum (r a)
    | Checked (cs, a) -> Checked (List.map (map_check r) cs, r a)
  in
  f e'

and map_check r = function
  | Bound c -> Bound { c with m = r c.m; index = r c.index }
  | Same c -> Same { c with a = r c.a; b = r c.b }
  | Null c -> Null { c with m = r c.m }
  | Dim c -> Dim { c with m = r c.m; index = r c.index }

(** [map_stmts fe fs stmts] — bottom-up rewrite of statements ([fs]) with
    expressions rewritten by [fe]. *)
let rec map_stmt fe fs s =
  let re = map_expr fe in
  let rb = List.map (map_stmt fe fs) in
  let s' =
    match s with
    | Decl (t, n, e) -> Decl (t, n, Option.map re e)
    | Assign (lv, e) -> Assign (lv, re e)
    | MSetFlat (m, o, v) -> MSetFlat (re m, re o, re v)
    | VecScatter (m, b, st, v) -> VecScatter (re m, re b, re st, re v)
    | If (c, a, b) -> If (re c, rb a, rb b)
    | While (c, b) -> While (re c, rb b)
    | For l -> For { l with bound = re l.bound; body = rb l.body }
    | ParFor l -> ParFor { l with bound = re l.bound; body = rb l.body }
    | ExprS e -> ExprS (re e)
    | Return e -> Return (Option.map re e)
    | Break | Continue | Comment _ -> s
    | RcInc e -> RcInc (re e)
    | RcDec e -> RcDec (re e)
    | MWrite (p, m) -> MWrite (re p, re m)
    | Check c -> Check (map_check re c)
    | Block b -> Block (rb b)
    | Spawn (lv, f, args) -> Spawn (lv, f, List.map re args)
    | Sync -> Sync
    | Located (sp, b) -> Located (sp, rb b)
    | Site (site, b) -> Site (site, rb b)
  in
  fs s'

let map_stmts fe fs stmts = List.map (map_stmt fe fs) stmts

(** [iter_expr f e] — [f] on every node of [e], children first, as
    {!map_expr} visits them; nothing is rebuilt. *)
let rec iter_expr f e =
  let r = iter_expr f in
  (match e with
  | Int _ | Float _ | Bool _ | Str _ | Var _ -> ()
  | Unop (_, a) | Field (a, _) | MSize a | MRead a | VecSplat a | VecHsum a ->
      r a
  | Binop (_, a, b)
  | Min (a, b)
  | MGetFlat (a, b)
  | MDim (a, b)
  | VecBin (_, a, b) ->
      r a;
      r b
  | VecGather (a, b, c) ->
      r a;
      r b;
      r c
  | Call (_, es) | TupleE es | MAlloc { dims = es; _ } -> List.iter r es
  | MView { m; offset; dims; _ } -> List.iter r (m :: offset :: dims)
  | Checked (cs, a) ->
      List.iter (iter_check r) cs;
      r a);
  f e

and iter_check r = function
  | Bound c ->
      r c.m;
      r c.index
  | Same c ->
      r c.a;
      r c.b
  | Null c -> r c.m
  | Dim c ->
      r c.m;
      r c.index

(** [own_exprs s] — the expressions statement [s] evaluates itself, in
    order, not those of the statements nested in it. *)
let own_exprs = function
  | Decl (_, _, e) | Return e -> Option.to_list e
  | Assign (_, e) | ExprS e | RcInc e | RcDec e -> [ e ]
  | MSetFlat (a, b, c) -> [ a; b; c ]
  | VecScatter (a, b, c, d) -> [ a; b; c; d ]
  | MWrite (a, b) -> [ a; b ]
  | If (c, _, _) | While (c, _) -> [ c ]
  | For l | ParFor l -> [ l.bound ]
  | Spawn (_, _, args) -> args
  | Check (Bound { m; index; _ } | Dim { m; index; _ }) -> [ m; index ]
  | Check (Same { a; b; _ }) -> [ a; b ]
  | Check (Null { m; _ }) -> [ m ]
  | Break | Continue | Comment _ | Sync | Block _ | Located _ | Site _ -> []

(** [iter_stmts fe fs stmts] — [fe] on every expression node and [fs]
    on every statement of [stmts], nested ones included, children first,
    as {!map_stmts} visits them; nothing is rebuilt. *)
let rec iter_stmts fe fs stmts = List.iter (iter_stmt fe fs) stmts

and iter_stmt fe fs s =
  let rb = iter_stmts fe fs in
  List.iter (iter_expr fe) (own_exprs s);
  (match s with
  | If (_, a, b) ->
      rb a;
      rb b
  | While (_, b) | Block b | Located (_, b) | Site (_, b) -> rb b
  | For l | ParFor l -> rb l.body
  | _ -> ());
  fs s

(** [concat_map_stmts f stmts] — bottom-up rewrite in which each
    statement, its nested blocks already rewritten, becomes the
    statements [f s] (none to delete it). *)
let rec concat_map_stmts f stmts =
  let r = concat_map_stmts f in
  List.concat_map
    (fun s ->
      f
        (match s with
        | If (c, a, b) -> If (c, r a, r b)
        | While (c, b) -> While (c, r b)
        | For l -> For { l with body = r l.body }
        | ParFor l -> ParFor { l with body = r l.body }
        | Block b -> Block (r b)
        | Located (sp, b) -> Located (sp, r b)
        | Site (site, b) -> Site (site, r b)
        | s -> s))
    stmts

(** [subst_var name e stmts] — replace every [Var name] with [e]. *)
let subst_var name e stmts =
  map_stmts (function Var n when n = name -> e | x -> x) Fun.id stmts

(** [subst_var_expr name r e] — same substitution within one expression. *)
let subst_var_expr name r e =
  map_expr (function Var n when n = name -> r | x -> x) e

(** [ends_with_return b] — [b]'s last statement is a [Return], itself or
    as the last statement of a trailing [Located]: nothing after [b]
    runs. *)
let rec ends_with_return b =
  match List.rev b with
  | Return _ :: _ -> true
  | Located (_, b) :: _ -> ends_with_return b
  | _ -> false

(** [expr_uses_var name e] — does [Var name] occur in [e]? *)
let expr_uses_var name e =
  let found = ref false in
  iter_expr (function Var n when n = name -> found := true | _ -> ()) e;
  !found

(** [stmts_use_var name b] — does [Var name] occur anywhere in [b]? *)
let stmts_use_var name b =
  let found = ref false in
  iter_stmts
    (function Var n when n = name -> found := true | _ -> ())
    ignore b;
  !found

(** Loop constructor; [?prov] is the source span the loop is attributed to. *)
let mk_loop ?prov ?(dynamic = false) ~index ~bound body =
  { index; bound; body; prov; dynamic }

(** Structural helpers for building lowered code. *)
let ( +: ) a b = Binop (Arith Runtime.Scalar.Add, a, b)

let ( -: ) a b = Binop (Arith Runtime.Scalar.Sub, a, b)
let ( *: ) a b = Binop (Arith Runtime.Scalar.Mul, a, b)
let ( /: ) a b = Binop (Arith Runtime.Scalar.Div, a, b)
let ( <: ) a b = Binop (Cmp Runtime.Scalar.Lt, a, b)

(** Smart constant folding used by the lowerings and transformations so the
    emitted C matches the paper's figures (e.g. [n/4] stays symbolic but
    [8/4] folds to [2]). *)
let rec fold_expr e =
  match e with
  | Binop (Arith op, a, b) -> (
      let a = fold_expr a and b = fold_expr b in
      match (op, a, b) with
      | Runtime.Scalar.Add, Int 0, x | Runtime.Scalar.Add, x, Int 0 -> x
      | Runtime.Scalar.Sub, x, Int 0 -> x
      | Runtime.Scalar.Mul, Int 1, x | Runtime.Scalar.Mul, x, Int 1 -> x
      | Runtime.Scalar.Mul, Int 0, _ | Runtime.Scalar.Mul, _, Int 0 -> Int 0
      | Runtime.Scalar.Div, x, Int 1 -> x
      | _, Int x, Int y -> (
          match op with
          | Runtime.Scalar.Add -> Int (x + y)
          | Runtime.Scalar.Sub -> Int (x - y)
          | Runtime.Scalar.Mul -> Int (x * y)
          | Runtime.Scalar.Div -> if y = 0 then Binop (Arith op, a, b) else Int (x / y)
          | Runtime.Scalar.Mod -> if y = 0 then Binop (Arith op, a, b) else Int (x mod y))
      | _ -> Binop (Arith op, a, b))
  | Min (a, b) -> (
      match (fold_expr a, fold_expr b) with
      | Int x, Int y -> Int (min x y)
      | a, b -> Min (a, b))
  | e -> e

let fold_deep stmts = map_stmts fold_expr Fun.id stmts

(** [size_of extents] — the element count of a matrix of [extents]. *)
let size_of = function
  | [] -> Int 1
  | e :: es -> fold_expr (List.fold_left ( *: ) e es)
