(** Lowering of the matrix constructs to plain-C loop nests (§III): the
    translation the paper shows in Fig 3 for the with-loop, plus the
    general §III-A3 indexing (mask/gather indices materialise selection
    vectors, exactly what generated C does), elementwise and linear-algebra
    operator overloads, matrixMap with its lifted per-slice function, and
    the [init]/[dimSize]/[readMatrix]/[writeMatrix] builtins.

    This is the {e baseline} lowering: every optimization decision —
    with-loop fusion, slice-copy elimination, auto-parallelization
    (§III-C: the outermost loop of every genarray and the matrixMap
    iteration space can become [ParFor] regions for the enhanced
    fork-join pool) — is emitted in its unoptimized form wrapped in a
    {!Sites} annotation, and the extension's CIR passes ({!Passes})
    consume the sites.  Only analyses that genuinely need AST context
    (the one whole-function scan behind the slice-copy and bounds
    verdicts) run here; their verdicts travel in the site payload. *)

module L = Cminus.Lower
module T = Cminus.Types
module A = Cminus.Ast
module S = Runtime.Scalar
module Nd = Runtime.Ndarray
module R = Support.Remark
open Cir.Ir

let span_err = L.err

let ety = L.ety

let mat_of_ty span = function
  | T.TMat (e, r) -> (e, r)
  | ty -> span_err span "internal: expected a matrix type, got %s" (T.to_string ty)

(* Ensure a lowered matrix value is a variable (bind a temp otherwise). *)
let bind_mat t (stmts, e) (ty : T.ty) : stmt list * string =
  match e with
  | Var v -> (stmts, v)
  | e ->
      let tmp = L.fresh t "m" in
      (stmts @ [ Decl (T.to_ctype ty, tmp, Some e) ], tmp)

(* Bind any scalar expression so it is evaluated once. *)
let bind_scalar t (stmts, e) (ty : T.ty) : stmt list * expr =
  match e with
  | Var _ | Int _ | Float _ | Bool _ -> (stmts, e)
  | e ->
      let tmp = L.fresh t "s" in
      (stmts @ [ Decl (T.to_ctype ty, tmp, Some e) ], Var tmp)

(** Row-major flat offset of [idxs] given per-dimension extents. *)
let flat_offset (extents : expr list) (idxs : expr list) : expr =
  match (extents, idxs) with
  | _ :: ds, i0 :: is ->
      List.fold_left2 (fun acc d i -> fold_expr ((acc *: d) +: i)) i0 ds is
  | _ -> Int 0

let dims_of v rank = List.init rank (fun d -> MDim (Var v, Int d))

(* A fresh matrix whose every element the code after it writes before
   anything reads one, so its payload need not start zeroed. *)
let alloc elem dims = MAlloc { elem; dims; zeroed = false }

(* Elementwise conversion of a loaded element. *)
let conv ~(from : Nd.elem) ~(to_ : Nd.elem) e =
  match (from, to_) with
  | Nd.EInt, Nd.EFloat -> Unop (FloatOfInt, e)
  | _ -> e

(* Conversion of a scalar of type [from_ty] to a matrix element. *)
let coerce_scalar (from_ty : T.ty) (to_elem : Nd.elem) e =
  match (from_ty, to_elem) with
  | T.TInt, Nd.EFloat -> Unop (FloatOfInt, e)
  | T.TFloat, Nd.EInt -> Unop (IntOfFloat, e)
  | _ -> e

(* --- elementwise loops (§III-A2) ------------------------------------------- *)

(* Build: r = alloc(out_elem, dims of model); for i < size(model):
     r[i] = op(load a, load b).  [load] gets the flat index var.
   Each flat index writes exactly one output element, so under
   auto-parallelization the loop becomes a ParFor region (§III-C).  The
   whole is a [Producer] site: folding may compute each element in the
   one loop that reads [r] instead ([traps]: an element may fail). *)
let ew_loop t ~span ~traps ~(model : string) ~(rank : int)
    ~(out_elem : Nd.elem) ~(body : expr -> expr) : stmt list * expr =
  let r = L.fresh t "ew" and i = L.fresh t "i" in
  let loop =
    {
      index = i;
      bound = MSize (Var model);
      body = [ MSetFlat (Var r, Var i, body (Var i)) ];
      prov = Some span;
      dynamic = false;
    }
  in
  let stmts =
    [
      Site
        ( Sites.Producer { tmp = r; what = Sites.Elementwise; traps; span },
          [
            Decl
              ( CMat (out_elem, rank),
                r,
                Some (alloc out_elem (dims_of model rank)) );
            Site (Sites.AutoPar { kind = Sites.Elemwise; span }, [ For loop ]);
          ] );
    ]
  in
  L.add_pending t r;
  (stmts, Var r)

(* A matrix operand of the operation at [span], bound to a variable.
   Every operation reads its operand's extents or size, and an operand
   [L.maybe_null] names (a parameter, a call's result, a local declared
   without an initialiser, ...) may be NULL there, so it is checked
   first, unless the operation's own checks test it ([checked = false]). *)
let lower_operand ?(checked = true) t ~span (e : A.expr) : stmt list * string =
  let s, v = bind_mat t (L.lower_expr t e) (ety e) in
  if checked && L.maybe_null t e then
    (s @ [ Check (Null { m = Var v; span }) ], v)
  else (s, v)

let cir_binop (op : A.binop) : binop =
  match op with
  | A.BArith o -> Arith o
  | A.BCmp o -> Cmp o
  | A.BLogic o -> Logic o
  | A.BExt o when o = Nodes.op_dotstar -> Arith S.Mul
  | A.BExt o -> invalid_arg ("cir_binop: " ^ o)

let op_name = function
  | A.BArith o -> S.arith_name o
  | A.BCmp o -> S.cmp_name o
  | A.BLogic S.And -> "&&"
  | A.BLogic S.Or -> "||"
  | A.BExt o -> o

(* Integer [/] and [%] fail on a zero divisor: such an element must be
   computed where the source evaluates it. *)
let traps (op : A.binop) (elem : Nd.elem) =
  match op with
  | A.BArith (S.Div | S.Mod) -> elem = Nd.EInt
  | _ -> false

let h_binop t (op : A.binop) (a : A.expr) (b : A.expr) (rty : T.ty) span :
    (stmt list * expr) option =
  let ta = ety a and tb = ety b in
  match (op, ta, tb) with
  (* x1 :: x2 — materialise the integer range vector (Fig 8), as a
     [Producer] site that folding may turn into [x1 + i] in its reader. *)
  | A.BExt o, T.TInt, T.TInt when o = Nodes.op_range ->
      let sa, ea = bind_scalar t (L.lower_expr t a) T.TInt in
      let sb, eb = bind_scalar t (L.lower_expr t b) T.TInt in
      let n = L.fresh t "n" and r = L.fresh t "rng" and i = L.fresh t "i" in
      let stmts =
        sa @ sb
        @ [
            Decl (CInt, n, Some (fold_expr ((eb -: ea) +: Int 1)));
            If (Var n <: Int 0, [ Assign (LVar n, Int 0) ], []);
            Site
              ( Sites.Producer
                  { tmp = r; what = Sites.Range; traps = false; span },
                [
                  Decl (CMat (Nd.EInt, 1), r, Some (alloc Nd.EInt [ Var n ]));
                  For
                    {
                      index = i;
                      bound = Var n;
                      body = [ MSetFlat (Var r, Var i, ea +: Var i) ];
                      prov = Some span;
                      dynamic = false;
                    };
                ] );
          ]
      in
      L.add_pending t r;
      Some (stmts, Var r)
  (* linear-algebra matrix multiplication (§III-A2) *)
  | A.BArith S.Mul, T.TMat (e1, 2), T.TMat (_, 2) ->
      let sa, va = lower_operand t ~span a in
      let sb, vb = lower_operand t ~span b in
      let m = MDim (Var va, Int 0)
      and k = MDim (Var va, Int 1)
      and n = MDim (Var vb, Int 1) in
      let r = L.fresh t "mm" in
      let i = L.fresh t "i" and j = L.fresh t "j" and l = L.fresh t "l" in
      let acc = L.fresh t "acc" in
      let elem_zero = if e1 = Nd.EFloat then Float 0. else Int 0 in
      let cty = if e1 = Nd.EFloat then CFloat else CInt in
      let body =
        [
          Decl (cty, acc, Some elem_zero);
          For
            {
              index = l;
              bound = k;
              prov = Some span;
              dynamic = false;
              body =
                [
                  Assign
                    ( LVar acc,
                      Var acc
                      +: Binop
                           ( Arith S.Mul,
                             MGetFlat (Var va, (Var i *: k) +: Var l),
                             MGetFlat (Var vb, (Var l *: n) +: Var j) ) );
                ];
            };
          MSetFlat (Var r, (Var i *: n) +: Var j, Var acc);
        ]
      in
      (* Each outer iteration writes result row [i] only, so the row loop
         parallelises under auto-par (§III-C) — the interpreter's analogue
         of dispatching matmul row blocks to the pool. *)
      let row_loop =
        {
          index = i;
          bound = m;
          body = [ For (mk_loop ~prov:span ~index:j ~bound:n body) ];
          prov = Some span;
          dynamic = false;
        }
      in
      let inner =
        Same
          {
            what = "inner dimensions of the matrix product disagree";
            a = k;
            b = MDim (Var vb, Int 0);
            span;
          }
      in
      let stmts =
        sa @ sb
        @ [
            Check inner;
            Decl (CMat (e1, 2), r, Some (alloc e1 [ m; n ]));
            Site
              ( Sites.AutoPar { kind = Sites.MatmulRow; span },
                [ For row_loop ] );
          ]
      in
      L.add_pending t r;
      Some (stmts, Var r)
  (* matrix (.) matrix elementwise: + - / % .* comparisons logic *)
  | _, T.TMat (e1, r1), T.TMat (_, _) ->
      let out_elem, _ = mat_of_ty span rty in
      let sa, va = lower_operand t ~span a in
      let sb, vb = lower_operand t ~span b in
      (* the loop walks [va]'s elements over both buffers *)
      let agree =
        if va = vb then []
        else
          List.init r1 (fun d ->
              Check
                (Same
                   {
                     what =
                       Printf.sprintf "operands of '%s' disagree in dimension %d"
                         (op_name op) d;
                     a = MDim (Var va, Int d);
                     b = MDim (Var vb, Int d);
                     span;
                   }))
      in
      let arith_elem = match rty with T.TMat (e, _) -> e | _ -> e1 in
      let s, v =
        ew_loop t ~span ~traps:(traps op arith_elem) ~model:va ~rank:r1
          ~out_elem ~body:(fun i ->
            let load_conv m from =
              match op with
              | A.BArith _ | A.BExt _ ->
                  conv ~from ~to_:arith_elem (MGetFlat (Var m, i))
              | _ -> MGetFlat (Var m, i)
            in
            Binop (cir_binop op, load_conv va e1, load_conv vb e1))
      in
      Some (sa @ sb @ agree @ s, v)
  (* matrix (.) scalar and scalar (.) matrix *)
  | _, T.TMat (e1, r1), sc when T.is_scalar sc ->
      let out_elem, _ = mat_of_ty span rty in
      let sa, va = lower_operand t ~span a in
      let sb, eb = bind_scalar t (L.lower_expr t b) sc in
      let arith_elem = match rty with T.TMat (e, _) -> e | _ -> e1 in
      let s, v =
        ew_loop t ~span ~traps:(traps op arith_elem) ~model:va ~rank:r1
          ~out_elem ~body:(fun i ->
            Binop
              ( cir_binop op,
                conv ~from:e1 ~to_:arith_elem (MGetFlat (Var va, i)),
                coerce_scalar sc arith_elem eb ))
      in
      Some (sa @ sb @ s, v)
  | _, sc, T.TMat (e1, r1) when T.is_scalar sc ->
      let out_elem, _ = mat_of_ty span rty in
      let sa, ea = bind_scalar t (L.lower_expr t a) sc in
      let sb, vb = lower_operand t ~span b in
      let arith_elem = match rty with T.TMat (e, _) -> e | _ -> e1 in
      let s, v =
        ew_loop t ~span ~traps:(traps op arith_elem) ~model:vb ~rank:r1
          ~out_elem ~body:(fun i ->
            Binop
              ( cir_binop op,
                coerce_scalar sc arith_elem ea,
                conv ~from:e1 ~to_:arith_elem (MGetFlat (Var vb, i)) ))
      in
      Some (sa @ sb @ s, v)
  | _ -> None

let h_unop t (op : A.unop) (a : A.expr) (rty : T.ty) span :
    (stmt list * expr) option =
  match ety a with
  | T.TMat (e1, r1) ->
      let out_elem = match rty with T.TMat (e, _) -> e | _ -> e1 in
      let sa, va = lower_operand t ~span a in
      let s, v =
        ew_loop t ~span ~traps:false ~model:va ~rank:r1 ~out_elem
          ~body:(fun i ->
            match op with
            | A.UNeg -> Unop (Neg, MGetFlat (Var va, i))
            | A.UNot -> Unop (Not, MGetFlat (Var va, i)))
      in
      Some (sa @ s, v)
  | _ -> None

(* --- subscripting (§III-A3) ---------------------------------------------------- *)

type spec =
  | SAt of expr
  | SAll
  | SGather of string * bool
      (** variable holding a 1-D int selection vector; [true] when its
          elements need a check (a mask's are in range by construction) *)

(* Lower one index item for dimension [d] of matrix var [base]. *)
let lower_index t (base : string) (base_ty : T.ty) (d : int) (ix : A.index) :
    stmt list * spec =
  match ix with
  | A.IAll _ -> ([], SAll)
  | A.IExpr e -> (
      let saved = t.L.index_ctx in
      t.L.index_ctx <- Some (Var base, d);
      let lowered = L.lower_expr t e in
      t.L.index_ctx <- saved;
      match ety e with
      | T.TInt ->
          let s, v = bind_scalar t lowered T.TInt in
          (s, SAt v)
      | T.TMat (Nd.EInt, 1) ->
          let s, v = bind_mat t lowered (ety e) in
          (s, SGather (v, true))
      | T.TMat (Nd.EBool, 1) ->
          (* Logical indexing: materialise the selection vector of true
             positions (what the generated C does for mask indices).  A
             mask as long as the dimension selects only positions in
             it. *)
          let s, mask = bind_mat t lowered (ety e) in
          let s =
            s
            @ [
                Check
                  (Same
                     {
                       what =
                         Printf.sprintf "mask length disagrees with dimension %d"
                           d;
                       a = MSize (Var mask);
                       b = MDim (Var base, Int d);
                       span = e.A.espan;
                     });
              ]
          in
          let cnt = L.fresh t "cnt"
          and sel = L.fresh t "sel"
          and i = L.fresh t "i"
          and k = L.fresh t "k" in
          let build =
            [
              Decl (CInt, cnt, Some (Int 0));
              For
                {
                  index = i;
                  bound = MSize (Var mask);
                  prov = Some e.A.espan;
                  dynamic = false;
                  body =
                    [
                      If
                        ( MGetFlat (Var mask, Var i),
                          [ Assign (LVar cnt, Var cnt +: Int 1) ],
                          [] );
                    ];
                };
              Decl (CMat (Nd.EInt, 1), sel, Some (alloc Nd.EInt [ Var cnt ]));
              Decl (CInt, k, Some (Int 0));
              For
                {
                  index = i;
                  bound = MSize (Var mask);
                  prov = Some e.A.espan;
                  dynamic = false;
                  body =
                    [
                      If
                        ( MGetFlat (Var mask, Var i),
                          [
                            MSetFlat (Var sel, Var k, Var i);
                            Assign (LVar k, Var k +: Int 1);
                          ],
                          [] );
                    ];
                };
            ]
          in
          L.add_pending t sel;
          (s @ build, SGather (sel, false))
      | ty ->
          span_err e.A.espan "internal: index of type %s at dimension %d of %s"
            (T.to_string ty) d
            (T.to_string base_ty))

let lower_specs t base base_ty indices =
  List.fold_left
    (fun (stmts, specs, d) ix ->
      let s, sp = lower_index t base base_ty d ix in
      (stmts @ s, specs @ [ sp ], d + 1))
    ([], [], 0) indices
  |> fun (s, sp, _) -> (s, sp)

(* Per-dimension result extent for a kept spec. *)
let spec_extent base d = function
  | SAll -> MDim (Var base, Int d)
  | SGather (g, _) -> MSize (Var g)
  | SAt _ -> invalid_arg "spec_extent"

let checked cs e = match cs with [] -> e | cs -> Checked (cs, e)

(* --- what a function lets lowering prove about its matrices ---------------------

   One scan of each function body ([scan_facts], memoised per function)
   serves three verdicts: the two slice verdicts below, which decide
   whether copy elimination (§III-A5) may drop a slice's copy and travel
   in the [SliceAlias] site (the copy-elim pass only acts on them), and
   the bounds proofs of the subscript checks (§III-A3).

   An identity slice `m[:, …, :]` may be lowered to a retained alias of
   `m` only when that is observationally equal to the copy: no write to
   the shared buffer while both handles are live.  We require, over the
   whole current function body:

   - the slice is the direct initialiser of a matrix variable
     (`Matrix b = m[:, :];` or `b = m[:, :];`) — any other context
     (call argument, return value, operand) gets a copy, so the alias can
     never escape the function;
   - no handle sharing a buffer with the base or the destination is ever
     buffer-written: subscript-assigned, whole-matrix scalar-filled,
     passed to a function (the callee may mutate a borrowed parameter),
     handed to matrixMap (the lifted per-slice function gets direct
     access), stored in a tuple (writes through the tuple are untracked),
     or returned (the buffer would escape to the caller).  Buffer sharing
     is closed over plain handle copies (`Matrix c = b;`), other identity
     slices and the function's matrix parameters (a caller may pass one
     matrix twice).

   A one-dimensional slice `Matrix t <1> s = b[e1, …, :, …, en];` need
   not be built at all when each `s[k]` can read `b[e1, …, k, …, en]` in
   place and `dimSize(s, 0)` can read b's extent in the kept dimension
   (the Fig 1 → Fig 3 rewrite).  We require, over the whole body:

   1. s is bound once, by this declaration, and used only as element
      reads `s[k]` and as `dimSize(s, 0)`: never written, reassigned,
      passed, returned or sliced;
   2. every read `s[k]` is in range: k is the index of the innermost
      enclosing for loop or with-loop generator that binds it, running
      from 0 below `dimSize(s, 0)`, given directly or as an int bound
      once to it and never assigned;
   3. b's buffer is neither written nor escapes (the analysis above),
      and b is bound once and never assigned;
   4. every variable named in e1 … en is bound once and never assigned.

   "Bound once" rules out shadowing: a name read at `s[k]` means what it
   meant at the declaration.  Anything else falls back to the allocating
   copy — the seed semantics.

   The scan sees through an extension statement that forwards to a host
   statement (a transform statement is its assignment).  A function
   holding a construct it cannot see into — an unknown extension
   expression, an extension statement with no forward, or a write
   through an unnamed handle — proves nothing: every slice keeps its
   copy and every scalar index its check, for one reason. *)

exception Opaque
(* an extension expression the scan does not know *)

let opaque =
  "function contains an extension construct or a write through an unnamed \
   handle that the analysis cannot see into"

let is_mat_ident (e : A.expr) =
  match (e.A.e, e.A.ety) with
  | A.Ident v, Some ty when L.contains_mat ty -> Some v
  | _ -> None

(* Builtins that read their matrix argument but never write its buffer. *)
let readonly_call = function
  | "dimSize" | "writeMatrix" -> true
  | _ -> false

let is_identity_slice ixs =
  ixs <> [] && List.for_all (function A.IAll _ -> true | _ -> false) ixs

(* The immediate subexpressions of [e], in evaluation order.  Raises
   [Opaque]. *)
let sub_exprs (e : A.expr) : A.expr list =
  match e.A.e with
  | A.Ident _ | A.IntLit _ | A.FloatLit _ | A.BoolLit _ | A.StrLit _
  | A.ExtE Nodes.EEnd ->
      []
  | A.Bin (_, a, b) -> [ a; b ]
  | A.Un (_, a) | A.Cast (_, a) -> [ a ]
  | A.CallE (_, es) | A.TupleLit es -> es
  | A.Subscript (b, ixs) ->
      b :: List.filter_map (function A.IExpr x -> Some x | A.IAll _ -> None) ixs
  | A.ExtE (Nodes.EWith (gen, op)) -> (
      gen.Nodes.lo @ gen.Nodes.hi
      @
      match op with
      | Nodes.OGenarray (shape, b) -> shape @ [ b ]
      | Nodes.OFold (_, base, b) -> [ base; b ])
  | A.ExtE (Nodes.EMatrixMap (_, m, _)) -> [ m ]
  | A.ExtE (Nodes.EInit (_, dims)) -> dims
  | A.ExtE _ -> raise Opaque

(* The generator indices of a with-loop that run from 0 below a bound,
   each with that bound.  A genarray's index has a second bound, the
   shape in its position: the shape check [lower_with] emits makes it
   one.  Nothing can assign the indices, but a nested generator may
   rebind them. *)
let zero_based ?(shape = []) (g : Nodes.generator) =
  if g.Nodes.lo_rel = Nodes.RLe && g.Nodes.hi_rel = Nodes.RLt then
    List.combine g.Nodes.ids (List.combine g.Nodes.lo g.Nodes.hi)
    |> List.mapi (fun d (id, ((lo : A.expr), hi)) ->
           match lo.A.e with
           | A.IntLit 0 ->
               (id, (hi, `Generator))
               :: List.map (fun s -> (id, (s, `Shape)))
                    (Option.to_list (List.nth_opt shape d))
           | _ -> [])
    |> List.concat
  else []

(* The index of [for (int k = 0; k < hi; k++)], with [hi].  Its body may
   assign or shadow it. *)
let zero_based_for init cond step =
  let is k (e : A.expr) = match e.A.e with A.Ident v -> v = k | _ -> false in
  match (init, cond, step) with
  | ( Some { A.s = A.DeclS (A.TyInt, k, Some { A.e = A.IntLit 0; _ }); _ },
      Some { A.e = A.Bin (A.BCmp S.Lt, i, hi); _ },
      Some
        {
          A.s =
            A.AssignS
              (j, { A.e = A.Bin (A.BArith S.Add, j', { A.e = A.IntLit 1; _ }); _ });
          _;
        } )
    when List.for_all (is k) [ i; j; j' ] ->
      [ (k, (hi, `For)) ]
  | _ -> []

let rec idents (e : A.expr) =
  match e.A.e with
  | A.Ident v -> [ v ]
  | _ -> List.concat_map idents (sub_exprs e)

(* A loop index in force: a bound it runs from 0 below, and what binds
   it there. *)
type range = string * (A.expr * [ `Generator | `Shape | `For ])

type access = {
  base : A.expr;  (** the subscripted matrix, a name *)
  ixs : A.index list;
  aspan : Support.Pos.span;  (** the whole subscript *)
  write : bool;  (** the target of an element assignment *)
  ranges : range list;
      (** innermost binder first: a name appears only with the bounds of
          the binder that hides the others *)
}

type facts = {
  opaque : bool;  (** the body holds a construct the scan cannot see into *)
  binders : (string * A.expr option) list;
      (** parameters, declarations (an int's initialiser kept) and
          generator indices *)
  targets : string list;  (** one entry per assignment of a name *)
  bindings : (string * A.expr * A.stmt) list;
      (** every binding of a name to a value: the name, the declaration's
          initialiser or the assignment's right-hand side, the statement *)
  written : string list;
      (** the names whose buffer a statement may write or let escape;
          {!facts} closes it over buffer sharing *)
  accesses : access list;  (** in scan order *)
  uses : (string * Support.Pos.span) list;
      (** in scan order, every use of a name other than as the base of an
          element read [m[i, …]] or as [dimSize(m, 0)]'s matrix *)
}

let hide names (ranges : range list) =
  List.filter (fun (id, _) -> not (List.mem id names)) ranges

let scan_facts (f : A.fundef) : facts =
  let binders = ref (List.map (fun (_, p) -> (p, None)) f.A.params)
  and targets = ref []
  and bindings = ref []
  and written = ref []
  and accesses = ref []
  and uses = ref []
  and opaque = ref false in
  let seed e =
    Option.iter (fun v -> written := v :: !written) (is_mat_ident e)
  in
  let access ranges ~write (e : A.expr) =
    match e.A.e with
    | A.Subscript (({ A.e = A.Ident _; _ } as base), ixs) ->
        accesses := { base; ixs; aspan = e.A.espan; write; ranges } :: !accesses
    | _ -> ()
  in
  let elements = List.for_all (function A.IExpr _ -> true | A.IAll _ -> false) in
  let rec expr ranges (e : A.expr) =
    match e.A.e with
    | A.Subscript ({ A.e = A.Ident _; _ }, ixs) when elements ixs ->
        access ranges ~write:false e;
        List.iter
          (function A.IExpr x -> expr ranges x | A.IAll _ -> ())
          ixs
    | A.CallE ("dimSize", [ { A.e = A.Ident _; _ }; { A.e = A.IntLit 0; _ } ])
      ->
        ()
    | A.Ident v -> uses := (v, e.A.espan) :: !uses
    | A.ExtE (Nodes.EWith (gen, op)) -> (
        binders := List.map (fun id -> (id, None)) gen.Nodes.ids @ !binders;
        let shape =
          match op with Nodes.OGenarray (shape, _) -> shape | _ -> []
        in
        (* the generator's indices hide enclosing ones of the same name *)
        let inner = zero_based ~shape gen @ hide gen.Nodes.ids ranges in
        List.iter (expr ranges) (gen.Nodes.lo @ gen.Nodes.hi);
        match op with
        | Nodes.OGenarray (shape, b) ->
            List.iter (expr ranges) shape;
            expr inner b
        | Nodes.OFold (_, b0, b) ->
            expr ranges b0;
            expr inner b)
    | A.Subscript _ ->
        (* a slice uses its base as a whole *)
        access ranges ~write:false e;
        List.iter (expr ranges) (sub_exprs e)
    | A.CallE (f, es) when not (readonly_call f) -> escape ranges es
    | A.TupleLit es -> escape ranges es
    | A.ExtE (Nodes.EMatrixMap (_, m, _)) -> escape ranges [ m ]
    | _ -> (
        match sub_exprs e with
        | es -> List.iter (expr ranges) es
        | exception Opaque -> opaque := true)
  (* A matrix named among [es] may be written: a callee may mutate a
     borrowed parameter, matrixMap's lifted function gets direct access,
     and writes through a tuple are untracked. *)
  and escape ranges es =
    List.iter seed es;
    List.iter (expr ranges) es
  and stmt ranges (st : A.stmt) =
    match st.A.s with
    | A.DeclS (ty, name, init) ->
        Option.iter
          (fun i ->
            expr ranges i;
            bindings := (name, i, st) :: !bindings)
          init;
        (* only an int's initialiser can make it a loop bound *)
        let init = match ty with A.TyInt -> init | _ -> None in
        binders := (name, init) :: !binders
    | A.AssignS (lhs, rhs) -> (
        expr ranges rhs;
        assigned ranges lhs;
        match lhs.A.e with
        | A.Ident v -> (
            bindings := (v, rhs, st) :: !bindings;
            (* a whole-matrix scalar fill writes the buffer in place;
               rebinding a handle does not *)
            match (lhs.A.ety, rhs.A.ety) with
            | Some (T.TMat _), Some ty when T.is_scalar ty -> seed lhs
            | _ -> ())
        | _ -> ())
    | A.IfS (c, a, b) ->
        expr ranges c;
        List.iter (stmt ranges) a;
        List.iter (stmt ranges) b
    | A.WhileS (c, b) ->
        expr ranges c;
        List.iter (stmt ranges) b
    | A.ForS (init, c, step, b) ->
        Option.iter (stmt ranges) init;
        Option.iter (expr ranges) c;
        Option.iter (stmt ranges) step;
        let inner = zero_based_for init c step in
        List.iter (stmt (inner @ hide (List.map fst inner) ranges)) b
    | A.ReturnS e ->
        (* a returned name's buffer escapes to the caller *)
        Option.iter
          (fun e ->
            seed e;
            expr ranges e)
          e
    | A.BreakS | A.ContinueS -> ()
    | A.ExprStmt e -> expr ranges e
    | A.BlockS b -> List.iter (stmt ranges) b
    | A.ExtS x -> (
        match A.forward_stmt x with
        | Some s -> stmt ranges { st with A.s }
        | None -> opaque := true)
  and assigned ranges (lhs : A.expr) =
    match lhs.A.e with
    | A.Ident v ->
        targets := v :: !targets;
        expr ranges lhs
    | A.TupleLit parts ->
        (* destructuring rebinds the parts to untracked handles *)
        List.iter seed parts;
        List.iter (assigned ranges) parts
    | A.Subscript (({ A.e = A.Ident _; _ } as b), _) ->
        (* an element write: its base is not a read, so [s[k] = …] is a
           use of [s] *)
        seed b;
        access ranges ~write:true lhs;
        List.iter (expr ranges) (sub_exprs lhs)
    | _ ->
        (* a write through an unnamed handle *)
        opaque := true;
        expr ranges lhs
  in
  List.iter (stmt []) f.A.body;
  {
    opaque = !opaque;
    binders = !binders;
    targets = !targets;
    bindings = !bindings;
    written = !written;
    accesses = List.rev !accesses;
    uses = List.rev !uses;
  }

(* [names] closed over the may-share-a-buffer [edges], both directions: a
   write to either end is visible through the other. *)
let rec closure names edges =
  let inside v = List.mem v names in
  match List.find_opt (fun (a, b) -> inside a <> inside b) edges with
  | Some (a, b) -> closure ((if inside a then b else a) :: names) edges
  | None -> names

(* One lowering's memo of {!facts}: the last function's facts, keyed by
   the function itself, so each function is scanned once. *)
type memo = (A.fundef * facts) option ref

let memo () : memo = ref None

(* The facts of the function being lowered.  Their [written] set is
   closed over buffer sharing: a binding to a plain handle copy or an
   identity slice, and any two matrix parameters. *)
let facts (memo : memo) t =
  let f = t.L.cur_fun in
  match !memo with
  | Some (g, fx) when g == f -> fx
  | _ ->
      let fx = scan_facts f in
      let shares (name, (rhs : A.expr), _) =
        let shared =
          match rhs.A.e with
          | A.Subscript (b, ixs) when is_identity_slice ixs -> b
          | _ -> rhs
        in
        Option.map (fun v -> (name, v)) (is_mat_ident shared)
      in
      let params = t.L.params in
      let edges =
        List.filter_map shares fx.bindings
        @ List.concat_map (fun a -> List.map (fun b -> (a, b)) params) params
      in
      let fx = { fx with written = closure fx.written edges } in
      memo := Some (f, fx);
      fx

let count v names = List.length (List.filter (String.equal v) names)
let once fx v = count v (List.map fst fx.binders) = 1

(* [m] names one matrix for the whole function: bound once, never
   assigned. *)
let fixed fx v = once fx v && count v fx.targets = 0

(* [Some n] when [hi] is the extent of [m] in dimension [d]: dimSize(m,
   d) itself ([n = None]) or an int [n] bound once to it and never
   assigned. *)
let extent_of fx m d (hi : A.expr) =
  let is_extent (e : A.expr) =
    match e.A.e with
    | A.CallE ("dimSize", [ { A.e = A.Ident v; _ }; { A.e = A.IntLit d'; _ } ])
      ->
        v = m && d' = d
    | _ -> false
  in
  match hi.A.e with
  | A.Ident n
    when count n fx.targets = 0
         &&
         match List.filter (fun (v, _) -> v = n) fx.binders with
         | [ (_, Some init) ] -> is_extent init
         | _ -> false ->
      Some (Some n)
  | _ when is_extent hi -> Some None
  | _ -> None

(* Why loop index [k], bound by [(hi, kind)], does not run from 0 below
   [m]'s extent in dimension [d]; [None] when it does.  A for loop's step
   assigns its index; nothing else may, and no declaration may shadow
   it. *)
let outside_extent fx m d k (hi, kind) =
  match kind with
  | `For when not (once fx k) ->
      Some (Printf.sprintf "'%s' is declared more than once" k)
  | `For when count k fx.targets > 1 ->
      Some (Printf.sprintf "'%s' is assigned in its loop body" k)
  | _ -> (
      match extent_of fx m d hi with
      | Some _ -> None
      | None ->
          Some
            (Printf.sprintf
               "'%s' runs below a bound that is not dimSize(%s, %d) or an int \
                bound once to it"
               k m d))

(* The bindings whose right-hand side is THIS subscript occurrence
   (identified physically, base and index list), with the name each
   binds; [] in any other context. *)
let dests fx base indices =
  List.filter_map
    (fun (name, (rhs : A.expr), st) ->
      match rhs.A.e with
      | A.Subscript (b, ixs) when b == base && ixs == indices -> Some (name, st)
      | _ -> None)
    fx.bindings

(** [alias_verdict fx base indices] — may this identity slice be lowered
    to a retained alias?  Returns the decision {e and} the analysis
    verdict as prose, so the stderr diagnostic, the optimization remark
    and the [--json] report all carry the same reason. *)
let alias_verdict fx (base : A.expr) (indices : A.index list) : bool * string =
  match (is_mat_ident base, dests fx base indices) with
  | _ when fx.opaque -> (false, opaque)
  | None, _ -> (false, "slice base is not a named matrix variable")
  | _, [] ->
      ( false,
        "slice result is not bound directly to a variable, so the alias could \
         escape its statement" )
  | Some a, dests -> (
      match
        List.find_opt (fun v -> List.mem v fx.written) (a :: List.map fst dests)
      with
      | Some v ->
          ( false,
            Printf.sprintf
              "buffer of '%s' may be written or escape while both handles are \
               live"
              v )
      | None ->
          ( true,
            "no handle sharing the buffer is written or escapes while both \
             handles are live" ))

(** [fiber_verdict fx base indices s] — may the one-dimensional slice
    [base[indices]] that initialises [s] be read in place?  The decision,
    and the first condition that failed as prose. *)
let fiber_verdict fx (base : A.expr) (indices : A.index list) s :
    bool * string =
  match is_mat_ident base with
  | _ when fx.opaque -> (false, opaque)
  | None -> (false, "slice base is not a named matrix variable")
  | Some b -> (
      let vars =
        List.concat_map
          (function A.IExpr x -> idents x | A.IAll _ -> [])
          indices
      in
      (* every element read s[k], with the bound of the loop index k *)
      let reads =
        List.filter_map
          (fun a ->
            match (a.base.A.e, a.ixs) with
            | A.Ident v, [ A.IExpr ix ] when v = s && not a.write ->
                let range =
                  match ix.A.e with
                  | A.Ident k ->
                      Option.map (fun hi -> (k, hi)) (List.assoc_opt k a.ranges)
                  | _ -> None
                in
                Some (a.aspan, range)
            | _ -> None)
          fx.accesses
      in
      let in_range = function
        | _, Some (k, hi) -> outside_extent fx s 0 k hi = None
        | _, None -> false
      in
      match
        ( List.assoc_opt s fx.uses,
          List.find_opt (fun v -> not (fixed fx v)) (b :: vars),
          List.find_opt (fun r -> not (in_range r)) (List.rev reads) )
      with
      | _ when not (once fx s) ->
          (false, Printf.sprintf "'%s' is declared more than once" s)
      | Some sp, _, _ ->
          ( false,
            Printf.sprintf
              "'%s' is used at %s other than as an element read %s[k] or \
               dimSize(%s, 0)"
              s (Support.Pos.span_to_string sp) s s )
      | None, Some v, _ ->
          ( false,
            Printf.sprintf "%s '%s' is %s"
              (if v = b then "base" else "index variable")
              v
              (if once fx v then "assigned" else "declared more than once") )
      | None, None, _ when List.mem b fx.written ->
          ( false,
            Printf.sprintf
              "buffer of '%s' may be written or escape while '%s' is live" b s
          )
      | None, None, Some (sp, _) ->
          ( false,
            Printf.sprintf
              "the read at %s is not provably in range: its index is not a \
               loop index running from 0 below dimSize(%s, 0)"
              (Support.Pos.span_to_string sp) s )
      | None, None, None ->
          ( true,
            "every read is in range, and nothing it reads is written or \
             rebound while the slice is live" ))

(* --- subscript checks (§III-A3) -------------------------------------------------

   Every index of a source subscript is checked against its extent, and
   the matrix against NULL, unless the facts above prove the index in
   range: a loop index running from 0 below dimSize(m, d), bound by a
   with-loop generator, a genarray shape or a zero-based for loop, given
   directly or as an int bound once to it.  A proven index can never
   fail, so no pipeline keeps its check.  Each decision is a [bounds]
   remark. *)

(* The fact that puts index [ix] of dimension [d] of subscript [a] in
   range, or the fact that is missing. *)
let index_proof fx (a : access) d (ix : A.index) : (string, string) result =
  match (a.base.A.e, ix) with
  | A.Ident m, _ when not (fixed fx m) ->
      Error
        (Printf.sprintf "'%s' is %s" m
           (if once fx m then "assigned" else "declared more than once"))
  | A.Ident m, A.IExpr { A.e = A.Ident k; _ } -> (
      match List.filter (fun (id, _) -> id = k) a.ranges with
      | [] ->
          Error
            (Printf.sprintf
               "'%s' is not the index of an enclosing zero-based for loop or \
                with-loop generator"
               k)
      | (_, first) :: _ as rs -> (
          match
            List.find_opt (fun (_, r) -> outside_extent fx m d k r = None) rs
          with
          | Some (_, (hi, kind)) ->
              let bound =
                match extent_of fx m d hi with
                | Some (Some n) -> Printf.sprintf "%s = dimSize(%s, %d)" n m d
                | _ -> Printf.sprintf "dimSize(%s, %d)" m d
              in
              Ok
                (Printf.sprintf "'%s' runs from 0 below %s (%s)" k bound
                   (match kind with
                   | `Generator -> "with-loop generator"
                   | `Shape -> "genarray shape"
                   | `For -> "for loop"))
          | None ->
              Error
                (Option.value ~default:"" (outside_extent fx m d k first))))
  | _ -> Error "the index is not a loop index"

(* The checks of the scalar indices of [base[indices]] (lowered to [vb]
   and [specs]) that are not proven in range.  The decision is the
   [bounds] remark at the subscript's [span]. *)
let index_checks t fx ~span vb (base : A.expr) indices specs =
  let access =
    List.find_opt (fun a -> a.base == base && a.ixs == indices) fx.accesses
  in
  let decide d ix = function
    | SAll -> None
    | SGather (_, true) ->
        Some (Error "each element of the index vector is checked")
    | SGather (_, false) ->
        Some (Error "the mask's length is checked against the extent")
    | SAt _ -> (
        match access with
        | _ when fx.opaque -> Some (Error opaque)
        | Some a -> Some (index_proof fx a d ix)
        | None -> Some (Error "the subscripted matrix is not a named variable"))
  in
  let decisions =
    List.mapi (fun d (ix, spec) -> decide d ix spec) (List.combine indices specs)
  in
  let details =
    List.concat
      (List.mapi
         (fun d -> function
           | None -> []
           | Some (Ok fact) -> [ (Printf.sprintf "dim %d" d, "proven: " ^ fact) ]
           | Some (Error why) ->
               [ (Printf.sprintf "dim %d" d, "checked: " ^ why) ])
         decisions)
  in
  if details <> [] then
    if List.exists (function Some (Error _) -> true | _ -> false) decisions
    then
      R.emit t.L.remarks ~pass:"bounds" ~kind:R.Missed ~span ~details
        "subscript keeps a run-time check"
    else
      R.emit t.L.remarks ~pass:"bounds" ~kind:R.Applied ~span ~details
        "subscript check dropped: every index is proven in range";
  List.concat
    (List.mapi
       (fun dim -> function
         | SAt index, Some (Error _) -> [ Bound { m = Var vb; dim; index; span } ]
         | _ -> [])
       (List.combine specs decisions))

(* The region a non-scalar subscript of [vb] selects: the kept
   dimensions, a copy-loop index and an extent per kept dimension, the
   source index per dimension, and the checks of the gathered elements,
   in dimension order. *)
let region t ~span vb specs =
  let kept_dims =
    List.mapi (fun d sp -> (d, sp)) specs
    |> List.filter_map (fun (d, sp) ->
           match sp with SAt _ -> None | _ -> Some d)
  in
  let out_vars = List.map (fun _ -> L.fresh t "o") kept_dims in
  let extents =
    List.map (fun d -> spec_extent vb d (List.nth specs d)) kept_dims
  in
  let out_var d =
    Var (List.nth out_vars (List.length (List.filter (fun x -> x < d) kept_dims)))
  in
  let src_idxs, gathered =
    List.split
      (List.mapi
         (fun d sp ->
           match sp with
           | SAt e -> (e, [])
           | SAll -> (out_var d, [])
           | SGather (g, check) ->
               let index = MGetFlat (Var g, out_var d) in
               (index, if check then [ Bound { m = Var vb; dim = d; index; span } ] else []))
         specs)
  in
  (kept_dims, out_vars, extents, src_idxs, List.concat gathered)

(* An element access [m[i, …]] whose indices are scalars that do not
   read [m]'s extents through [end].  It needs no NULL check of [m]
   before its indices: each index check tests [m] against NULL first
   (MM_BOUND), and an index proven in range runs below a [dimSize] of
   [m], which checks it. *)
let element_access indices =
  let rec reads_end (e : A.expr) =
    match e.A.e with
    | A.ExtE Nodes.EEnd -> true
    | _ -> ( try List.exists reads_end (sub_exprs e) with Opaque -> true)
  in
  List.for_all
    (function
      | A.IExpr e -> ety e = T.TInt && not (reads_end e) | A.IAll _ -> false)
    indices

let h_subscript memo t (base : A.expr) (indices : A.index list) (rty : T.ty)
    span : (stmt list * expr) option =
  match ety base with
  | T.TMat (_elem, rank) ->
      let sb, vb =
        lower_operand ~checked:(not (element_access indices)) t ~span base
      in
      let si, specs = lower_specs t vb (ety base) indices in
      let fx = facts memo t in
      let checks = index_checks t fx ~span vb base indices specs in
      let all_at = List.for_all (function SAt _ -> true | _ -> false) specs in
      if all_at then
        (* (a) standard indexing: extract one element, no allocation *)
        let idxs = List.map (function SAt e -> e | _ -> assert false) specs in
        let off = flat_offset (dims_of vb rank) idxs in
        Some (sb @ si, MGetFlat (Var vb, checked checks off))
      else begin
        (* Allocating copy of the selected region — the baseline for every
           non-scalar selection, wrapped in a [SliceAlias] site below that
           the §III-A5 copy elimination pass consumes.  The scalar
           indices are checked once, ahead of the site, so a pass that
           drops the copy keeps them. *)
        let out_elem, _out_rank = mat_of_ty span rty in
        let r = L.fresh t "slice" in
        let kept_dims, out_vars, extents, src_idxs, gathered =
          region t ~span vb specs
        in
        let src_off = flat_offset (dims_of vb rank) src_idxs in
        let dst_off =
          flat_offset extents (List.map (fun v -> Var v) out_vars)
        in
        let inner =
          [ MSetFlat (Var r, dst_off, MGetFlat (Var vb, checked gathered src_off)) ]
        in
        let loops =
          List.fold_right2
            (fun v ext acc ->
              [ For (mk_loop ~prov:span ~index:v ~bound:ext acc) ])
            out_vars extents inner
        in
        (* Which copy the pass may drop, and whether it may: the verdicts
           need the function's facts, so they are computed HERE. *)
        let shape, safe, why =
          if List.for_all (function SAll -> true | _ -> false) specs then
            let safe, why = alias_verdict fx base indices in
            (Sites.Identity, safe, why)
          else
            match (out_vars, extents) with
            | [ index ], [ extent ]
              when List.for_all (function SGather _ -> false | _ -> true) specs
              -> (
                match dests fx base indices with
                | [ (var, { A.s = A.DeclS _; sspan = decl }) ] ->
                    let safe, why = fiber_verdict fx base indices var in
                    ( Sites.Fiber { var; index; offset = src_off; extent; decl },
                      safe,
                      why )
                | _ ->
                    ( Sites.Other,
                      false,
                      "the slice is not the initialiser of a declaration" ))
            | _ ->
                ( Sites.Other,
                  false,
                  "selection is not the whole matrix, so the buffer cannot be \
                   aliased" )
        in
        let stmts =
          sb @ si
          @ List.map (fun c -> Check c) checks
          @ [
              Site
                ( Sites.SliceAlias
                    { base = vb; slice = r; shape; safe; why; span },
                  Decl (CMat (out_elem, List.length kept_dims), r,
                    Some (alloc out_elem extents))
                  :: loops );
            ]
        in
        L.add_pending t r;
        Some (stmts, Var r)
      end
  | _ -> None

let h_subscript_assign memo t (base : A.expr) (indices : A.index list)
    (rhs : A.expr) ~at span : stmt list option =
  match ety base with
  | T.TMat (elem, rank) ->
      let sb, vb =
        lower_operand ~checked:(not (element_access indices)) t ~span:at base
      in
      let si, specs = lower_specs t vb (ety base) indices in
      let checks =
        index_checks t (facts memo t) ~span:at vb base indices specs
      in
      let rhs_ty = ety rhs in
      let all_at = List.for_all (function SAt _ -> true | _ -> false) specs in
      if all_at then begin
        (* single-element store *)
        let idxs = List.map (function SAt e -> e | _ -> assert false) specs in
        let off = flat_offset (dims_of vb rank) idxs in
        let sr, er = L.lower_expr t rhs in
        let er = coerce_scalar rhs_ty elem er in
        Some (sb @ si @ sr @ [ MSetFlat (Var vb, checked checks off, er) ])
      end
      else begin
        let _, out_vars, extents, dst_idxs, gathered =
          region t ~span:at vb specs
        in
        let dst_off = checked gathered (flat_offset (dims_of vb rank) dst_idxs) in
        let loops inner =
          List.fold_right2
            (fun v ext acc ->
              [ For (mk_loop ~prov:span ~index:v ~bound:ext acc) ])
            out_vars extents inner
        in
        let checks = List.map (fun c -> Check c) checks in
        match rhs_ty with
        | rt when T.is_scalar rt ->
            (* fill assignment *)
            let sr, er = L.lower_expr t rhs in
            let er = coerce_scalar rt elem er in
            Some (sb @ si @ sr @ checks @ loops [ MSetFlat (Var vb, dst_off, er) ])
        | T.TMat (relem, _) ->
            let sr, vr = lower_operand t ~span rhs in
            let fits =
              List.mapi
                (fun j ext ->
                  Check
                    (Same
                       {
                         what =
                           Printf.sprintf
                             "assigned matrix disagrees with the selected \
                              region in dimension %d"
                             j;
                         a = MDim (Var vr, Int j);
                         b = ext;
                         span;
                       }))
                extents
            in
            let roff =
              flat_offset extents (List.map (fun v -> Var v) out_vars)
            in
            Some
              (sb @ si @ sr @ checks @ fits
              @ loops
                  [
                    MSetFlat
                      ( Var vb,
                        dst_off,
                        conv ~from:relem ~to_:elem (MGetFlat (Var vr, roff)) );
                  ])
        | ty ->
            span_err span "cannot assign %s into a matrix region"
              (T.to_string ty)
      end
  | _ -> None

(* --- with-loops (§III-A4, the Fig 1 → Fig 3 translation) ---------------------- *)

(* Normalise one generator dimension to a 0-based canonical loop:
   returns (loop binder, start expr).  When the start is statically 0 the
   loop variable IS the generator id — which is what lets the programmer
   name it in a §V transform script ("parallelize i"). *)
let gen_loop_var t (id : string) (start : expr) :
    [ `Direct of string | `Shifted of string * string * expr ] =
  match fold_expr start with
  | Int 0 -> `Direct id
  | s -> `Shifted (id, L.fresh t ("g" ^ id), s)

let lower_generator t (gen : Nodes.generator) :
    stmt list * (string * expr * stmt list) list * expr list * (expr * expr) list
    =
  (* Per dimension: (loop index var, trip count, body prelude binding the
     generator id); plus the actual-index expression list and the
     [start, stop) each dimension runs over. *)
  let lower_bound b = bind_scalar t (L.lower_expr t b) T.TInt in
  let prelude = ref [] in
  let dims =
    List.map2
      (fun id (lo, hi) ->
        let slo, elo = lower_bound lo in
        let shi, ehi = lower_bound hi in
        prelude := !prelude @ slo @ shi;
        let start =
          match gen.Nodes.lo_rel with
          | Nodes.RLe -> elo
          | Nodes.RLt -> fold_expr (elo +: Int 1)
        in
        let stop =
          match gen.Nodes.hi_rel with
          | Nodes.RLt -> ehi
          | Nodes.RLe -> fold_expr (ehi +: Int 1)
        in
        let count = fold_expr (stop -: start) in
        match gen_loop_var t id start with
        | `Direct v -> (id, v, count, [], (start, stop))
        | `Shifted (id, v, s) ->
            (id, v, count, [ Decl (CInt, id, Some (Var v +: s)) ], (start, stop)))
      gen.Nodes.ids
      (List.combine gen.Nodes.lo gen.Nodes.hi)
  in
  let loops =
    List.map (fun (_, v, count, binds, _) -> (v, count, binds)) dims
  in
  let actual = List.map (fun (id, _, _, _, _) -> Var id) dims in
  (!prelude, loops, actual, List.map (fun (_, _, _, _, r) -> r) dims)

(* Do [a] and [b] denote one value wherever both are evaluated in one
   with-loop header?  Names, literals, dimSize and integer arithmetic of
   them; nothing in a header can assign between the two. *)
let rec same_value (a : A.expr) (b : A.expr) =
  match (a.A.e, b.A.e) with
  | A.Ident x, A.Ident y -> x = y
  | A.IntLit x, A.IntLit y -> x = y
  | A.CallE ("dimSize", [ m; d ]), A.CallE ("dimSize", [ m'; d' ]) ->
      same_value m m' && same_value d d'
  | A.Bin (A.BArith o, x, y), A.Bin (A.BArith o', x', y') ->
      o = o' && same_value x x' && same_value y y'
  | _ -> false

(* Does a genarray's generator run over the whole of one dimension of
   its shape, its bounds [lo] and [hi] being [0 <= i < s] for the
   shape's own extent [s] there? *)
let spans (gen : Nodes.generator) ((lo : A.expr), hi) s =
  gen.Nodes.lo_rel = Nodes.RLe && gen.Nodes.hi_rel = Nodes.RLt
  && (match lo.A.e with A.IntLit 0 -> true | _ -> false)
  && same_value hi s

(* Does the generator write every element of the shape?  Only then may
   the result's payload start unset. *)
let covers (gen : Nodes.generator) shape =
  List.for_all2 (spans gen) (List.combine gen.Nodes.lo gen.Nodes.hi) shape

(* The checks that every index a genarray's generator produces lies in
   the result [r]'s shape: its first and last index in each dimension
   the generator does not span.  The body then writes inside [r] by
   construction. *)
let shape_fits (gen : Nodes.generator) shape bounds r span =
  List.concat
    (List.mapi
       (fun d ((bounds_d, s), (start, stop)) ->
         if spans gen bounds_d s then []
         else
           let bound index = Check (Bound { m = Var r; dim = d; index; span }) in
           [
             If
               ( start <: stop,
                 (if start = Int 0 then [] else [ bound start ])
                 @ [ bound (fold_expr (stop -: Int 1)) ],
                 [] );
           ])
       (List.combine
          (List.combine (List.combine gen.Nodes.lo gen.Nodes.hi) shape)
          bounds))

(* Wrap [inner] in the generator loop nest — always sequential [For]s;
   the auto-par pass promotes the outermost loop of a [`[For l]`]-shaped
   nest to a ParFor region (§III-C) when enabled. *)
let build_nest ?prov loops inner =
  let rec go = function
    | [] -> inner
    | (v, count, binds) :: rest ->
        [ For (mk_loop ?prov ~index:v ~bound:count (binds @ go rest)) ]
  in
  go loops

(* A with-loop body, lowered with the generator's indices bound: its
   statements and value, and the releases of the temporaries it made,
   which the caller places in the loop after the value's use. *)
let lower_body t (gen : Nodes.generator) body =
  L.own_pending t (fun () ->
      L.binding t gen.Nodes.ids (fun () -> L.lower_expr t body))

let lower_with t (gen : Nodes.generator) (op : Nodes.operation) (rty : T.ty)
    span : stmt list * expr =
  let prelude, loops, actual, bounds = lower_generator t gen in
  match op with
  | Nodes.OGenarray (shape, body) ->
      let out_elem, out_rank = (match rty with
        | T.TMat (e, r) -> (e, r)
        | _ -> (Nd.EFloat, List.length shape))
      in
      let sshape, eshape =
        List.fold_left
          (fun (ss, es) d ->
            let s, e = bind_scalar t (L.lower_expr t d) T.TInt in
            (ss @ s, es @ [ e ]))
          ([], []) shape
      in
      let r = L.fresh t "gen" in
      let (sbody, ebody), release = lower_body t gen body in
      let ebody =
        match (ety body, out_elem) with
        | T.TInt, Nd.EFloat -> Unop (FloatOfInt, ebody)
        | _ -> ebody
      in
      let inner =
        sbody @ (MSetFlat (Var r, flat_offset eshape actual, ebody) :: release)
      in
      let nest = build_nest ~prov:span loops inner in
      let nest =
        [ Site (Sites.AutoPar { kind = Sites.WithGen; span }, nest) ]
      in
      let stmts =
        prelude @ sshape
        @ Decl
            ( CMat (out_elem, out_rank),
              r,
              Some
                (MAlloc
                   {
                     elem = out_elem;
                     dims = eshape;
                     zeroed = not (covers gen shape);
                   }) )
          :: shape_fits gen shape bounds r span
        @ nest
      in
      (* Library-style baseline (§III-A5): "a library implementation
         would likely evaluate the result of the with-loops into a
         temporary variable which is then copied" — materialise that
         extra copy inside a [FuseCopy] site.  The fusion pass deletes it
         (feeding the result to its consumer directly); when fusion is
         off the splice IS the library-style benchmark baseline. *)
      let cpy = L.fresh t "libcpy" and i = L.fresh t "i" in
      let copy_stmts =
        [
          Comment "library-style result copy (fusion disabled)";
          Decl
            ( CMat (out_elem, out_rank),
              cpy,
              Some (alloc out_elem (dims_of r out_rank)) );
          For
            {
              index = i;
              bound = MSize (Var r);
              body = [ MSetFlat (Var cpy, Var i, MGetFlat (Var r, Var i)) ];
              prov = Some span;
              dynamic = false;
            };
        ]
        @ L.rc_dec t (Var r)
      in
      L.add_pending t cpy;
      ( stmts
        @ [ Site (Sites.FuseCopy { result = r; copy = cpy; span }, copy_stmts) ],
        Var cpy )
  | Nodes.OFold (fop, base, body) ->
      let acc_ty = match rty with T.TFloat -> CFloat | T.TBool -> CBool | _ -> CInt in
      let acc = L.fresh t "acc" in
      let sbase, ebase = L.lower_expr t base in
      let ebase =
        match (ety base, rty) with
        | T.TInt, T.TFloat -> Unop (FloatOfInt, ebase)
        | _ -> ebase
      in
      let (sbody, ebody), release = lower_body t gen body in
      let ebody =
        match (ety body, rty) with
        | T.TInt, T.TFloat -> Unop (FloatOfInt, ebody)
        | _ -> ebody
      in
      let update =
        match fop with
        | Nodes.FPlus -> [ Assign (LVar acc, Var acc +: ebody) ]
        | Nodes.FTimes -> [ Assign (LVar acc, Var acc *: ebody) ]
        | Nodes.FMin ->
            let v = L.fresh t "v" in
            [
              Decl (acc_ty, v, Some ebody);
              If (Var v <: Var acc, [ Assign (LVar acc, Var v) ], []);
            ]
        | Nodes.FMax ->
            let v = L.fresh t "v" in
            [
              Decl (acc_ty, v, Some ebody);
              If (Var acc <: Var v, [ Assign (LVar acc, Var v) ], []);
            ]
      in
      let inner = sbody @ update @ release in
      (* folds stay sequential inside each genarray element (Fig 3): the
         auto-par pass never promotes a FoldAcc site — iterations race on
         the accumulator — but still owns the remark. *)
      let nest = build_nest ~prov:span loops inner in
      let nest = [ Site (Sites.AutoPar { kind = Sites.FoldAcc; span }, nest) ] in
      ( prelude @ sbase @ (Decl (acc_ty, acc, Some ebase) :: nest),
        Var acc )

(* --- matrixMap (§III-A5) ---------------------------------------------------

   The lifted per-slice function copies each fiber into a fresh matrix,
   calls the mapped function on it, and copies the result into the
   fiber's place in the output.  Both copies sit in sites that copy
   elimination may turn into views ({!Sites.MapFiber},
   {!Sites.MapResult}).  How the function reaches a fiber depends on
   where the mapped dimensions lie:
   - the last ones, in order: the fiber is one piece, the [t]-th at [t]
     times its size;
   - not the last one: fibers are strided, so the function takes a block
     of [fiber_block] consecutive fibers along the last dimension and
     gathers them into one buffer, and scatters their results, with the
     last dimension innermost: each cache line of the input and of the
     output is touched once per block;
   - otherwise each fiber is gathered and scattered on its own. *)

let fiber_block = 8

(* One call of [fname] on a fiber: the copy of the fiber into [slice]
   ([gather slice]), the call, the checks of its result's extents, the
   copy of the result into the output ([scatter out]), and the
   releases.  [at_in] and [at_out] are where the fiber and its output lie
   in one piece. *)
let fiber_call t ~fname ~span ~in_elem ~out_elem ~extents ~at_in ~at_out
    ~gather ~scatter =
  let k = List.length extents in
  let slice = L.fresh t "slice" and out = L.fresh t "out" in
  let agree =
    List.mapi
      (fun j ext ->
        Check
          (Same
             {
               what =
                 Printf.sprintf
                   "result of '%s' disagrees with its fiber in dimension %d"
                   fname j;
               a = MDim (Var out, Int j);
               b = ext;
               span;
             }))
      extents
  in
  [
    Site
      ( Sites.MapFiber { fname; slice; at = at_in; extents; span },
        Decl (CMat (in_elem, k), slice, Some (alloc in_elem extents))
        :: gather slice );
    Site
      ( Sites.MapResult { fname; slice; out; at = at_out; extents; span },
        (Decl (CMat (out_elem, k), out, Some (Call (fname, [ Var slice ])))
         :: agree)
        @ scatter out @ L.rc_dec t (Var out) );
  ]
  @ L.rc_dec t (Var slice)

let lower_matrix_map t (fname : string) (marg : A.expr) (dims : int list)
    (rty : T.ty) span : stmt list * expr =
  let in_elem, rank = mat_of_ty span (ety marg) in
  let out_elem, _ = mat_of_ty span rty in
  let k = List.length dims in
  let comp =
    List.filter (fun d -> not (List.mem d dims)) (List.init rank Fun.id)
  in
  let last = rank - 1 in
  let sm, vm = lower_operand t ~span marg in
  let r = L.fresh t "mmapr" in
  (* The lifted per-slice function: "we actually lift this out into a new
     function so that the spawned threads can get direct access to it". *)
  let lifted = L.fresh t ("mmap_" ^ fname) in
  let m = "m" and out = "r" and tvar = "t" in
  let loop index bound body = For (mk_loop ~prov:span ~index ~bound body) in
  let extents = List.map (fun d -> MDim (Var m, Int d)) dims in
  let n = L.fresh t "n" in
  let fiber_size = Decl (CInt, n, Some (size_of extents)) in
  let fiber_call = fiber_call t ~fname ~span ~in_elem ~out_elem ~extents in
  (* A fiber in one piece of [src] at [off], its output in one piece of
     [dst] at the same offset. *)
  let in_one_piece src dst off =
    let i = L.fresh t "i" in
    let copy ~into:(a, aoff) ~from:(b, boff) =
      let at o = fold_expr (o +: Var i) in
      [ loop i (Var n) [ MSetFlat (Var a, at aoff, MGetFlat (Var b, at boff)) ]
      ]
    in
    fiber_call
      ~at_in:(Some { Sites.buf = src; offset = off })
      ~at_out:(Some { Sites.buf = dst; offset = off })
      ~gather:(fun slice -> copy ~into:(slice, Int 0) ~from:(src, off))
      ~scatter:(fun res -> copy ~into:(dst, off) ~from:(res, Int 0))
  in
  (* The indices [c<d>] of dimensions [ds] that the counter [rem]
     encodes, the last varying fastest. *)
  let decode rem ds =
    List.concat_map
      (fun d ->
        let ix = Printf.sprintf "c%d" d and ext = MDim (Var m, Int d) in
        [
          Decl (CInt, ix, Some (Binop (Arith S.Mod, Var rem, ext)));
          Assign (LVar rem, Var rem /: ext);
        ])
      (List.rev ds)
  in
  let ovars = List.map (fun d -> Printf.sprintf "o%d" d) dims in
  (* The loop nest over a fiber's elements, around [inner]. *)
  let over_fiber inner =
    List.fold_right2 (fun v ext acc -> [ loop v ext acc ]) ovars extents inner
  in
  (* The fiber element's offset in the fiber, and in [m], where the last
     dimension's index is [last_ix] when it is not mapped. *)
  let fiber_off = flat_offset extents (List.map (fun v -> Var v) ovars) in
  let src_off last_ix =
    flat_offset (dims_of m rank)
      (List.init rank (fun d ->
           if List.mem d dims then Var (Printf.sprintf "o%d" d)
           else if d = last then last_ix
           else Var (Printf.sprintf "c%d" d)))
  in
  let count ds =
    List.fold_left (fun acc d -> acc *: MDim (Var vm, Int d)) (Int 1) ds
  in
  let blocks e = (e +: Int (fiber_block - 1)) /: Int fiber_block in
  let blocked = List.mem last comp in
  let body, total =
    if dims = List.init k (fun j -> rank - k + j) then
      (* contiguous fibers: the [t]-th at [t] times the fiber's size *)
      let off = L.fresh t "off" in
      ( [ fiber_size; Decl (CInt, off, Some (Var tvar *: Var n)) ]
        @ in_one_piece m out (Var off),
        count comp )
    else if blocked then
      (* a block of up to [fiber_block] fibers, from index [lo] of the
         last dimension on: gathered into [blk], each fiber at [b] times
         its size, and their results scattered from [oblk] *)
      let ext = MDim (Var m, Int last)
      and others = List.filter (( <> ) last) comp in
      let nblk = L.fresh t "nblk" and rem = L.fresh t "rem"
      and lo = L.fresh t "lo" and nb = L.fresh t "nb"
      and b = L.fresh t "b" and off = L.fresh t "off"
      and blk = L.fresh t "blk" and oblk = L.fresh t "oblk" in
      let at_b = (Var b *: Var n) +: fiber_off
      and at_m = src_off (Var lo +: Var b) in
      let buffer v elem =
        Decl (CMat (elem, 1), v, Some (alloc elem [ Var nb *: Var n ]))
      in
      ( [
          Decl (CInt, nblk, Some (blocks ext));
          Decl (CInt, rem, Some (Var tvar));
          Decl
            ( CInt,
              lo,
              Some (Binop (Arith S.Mod, Var rem, Var nblk) *: Int fiber_block)
            );
          Assign (LVar rem, Var rem /: Var nblk);
        ]
        @ decode rem others
        @ [
            Decl (CInt, nb, Some (Min (Int fiber_block, ext -: Var lo)));
            fiber_size;
            buffer blk in_elem;
          ]
        @ over_fiber
            [
              loop b (Var nb)
                [ MSetFlat (Var blk, at_b, MGetFlat (Var m, at_m)) ];
            ]
        @ [
            buffer oblk out_elem;
            loop b (Var nb)
              (Decl (CInt, off, Some (Var b *: Var n))
              :: in_one_piece blk oblk (Var off));
          ]
        @ over_fiber
            [
              loop b (Var nb)
                [ MSetFlat (Var out, at_m, MGetFlat (Var oblk, at_b)) ];
            ]
        @ L.rc_dec t (Var blk) @ L.rc_dec t (Var oblk),
        count others *: blocks (MDim (Var vm, Int last)) )
    else
      (* strided fibers, one at a time *)
      let rem = L.fresh t "rem" and at_m = src_off (Int 0) in
      ( (Decl (CInt, rem, Some (Var tvar)) :: decode rem comp)
        @ fiber_call ~at_in:None ~at_out:None
            ~gather:(fun slice ->
              over_fiber
                [ MSetFlat (Var slice, fiber_off, MGetFlat (Var m, at_m)) ])
            ~scatter:(fun res ->
              over_fiber
                [ MSetFlat (Var out, at_m, MGetFlat (Var res, fiber_off)) ]),
        count comp )
  in
  let lf =
    {
      f_name = lifted;
      f_params =
        [
          (CMat (in_elem, rank), m);
          (CMat (out_elem, rank), out);
          (CInt, tvar);
        ];
      f_ret = CVoid;
      f_body = body @ [ Return None ];
      (* a fault here outside the fiber loops names the matrixMap, as the
         interpreter does through the loop calling the body *)
      f_span = Some span;
      f_origin = Some t.L.cur_fun.A.fname;
    }
  in
  t.L.extra_funcs <- lf :: t.L.extra_funcs;
  let total_v = L.fresh t "total" and tt = L.fresh t "t" in
  (* a block's frames may differ widely in cost: hand them out one by one *)
  let dispatch =
    mk_loop ~prov:span ~dynamic:blocked ~index:tt ~bound:(Var total_v)
      [ ExprS (Call (lifted, [ Var vm; Var r; Var tt ])) ]
  in
  let stmts =
    sm
    @ [
        Decl
          (CMat (out_elem, rank), r, Some (alloc out_elem (dims_of vm rank)));
        Decl (CInt, total_v, Some (fold_expr total));
        Site
          ( Sites.AutoPar { kind = Sites.MatrixMap fname; span },
            [ For dispatch ] );
      ]
  in
  L.add_pending t r;
  (stmts, Var r)

(* --- extension expressions and builtins --------------------------------------- *)

let h_ty _t (ext : A.ext_ty) : T.ty option =
  match ext with
  | Nodes.TyMatrix (elem_te, rank) ->
      let elem =
        match elem_te with
        | A.TyInt -> Nd.EInt
        | A.TyFloat -> Nd.EFloat
        | A.TyBool -> Nd.EBool
        | _ -> Nd.EInt
      in
      Some (T.TMat (elem, rank))
  | _ -> None

let h_expr t (ext : A.ext_expr) (rty : T.ty) span : (stmt list * expr) option =
  match ext with
  | Nodes.EEnd -> (
      match t.L.index_ctx with
      | Some (m, d) -> Some ([], fold_expr (MDim (m, Int d) -: Int 1))
      | None -> span_err span "'end' outside of a subscript")
  | Nodes.EInit (_, dims) ->
      let elem, _rank = mat_of_ty span rty in
      let sdims, edims =
        List.fold_left
          (fun (ss, es) d ->
            let s, e = L.lower_expr t d in
            (ss @ s, es @ [ e ]))
          ([], []) dims
      in
      let tmp = L.fresh t "initm" in
      L.add_pending t tmp;
      Some
        ( sdims
          @ [
              Decl
                ( T.to_ctype rty,
                  tmp,
                  Some (MAlloc { elem; dims = edims; zeroed = true }) );
            ],
          Var tmp )
  | Nodes.EWith (gen, op) -> Some (lower_with t gen op rty span)
  | Nodes.EMatrixMap (fname, m, dims) ->
      Some (lower_matrix_map t fname m dims rty span)
  | _ -> None

let h_call t (name : string) (args : A.expr list) (rty : T.ty) span
    ~expected:_ : (stmt list * expr) option =
  match (name, args) with
  | "dimSize", [ m; d ] -> (
      let sm, vm = lower_operand t ~span m in
      match (L.lower_expr t d, ety m) with
      | (sd, (Int _ as ed)), _ ->
          (* the checker has bounded a literal dimension *)
          Some (sm @ sd, MDim (Var vm, ed))
      | sed, T.TMat (_, rank) ->
          let sd, ed = bind_scalar t sed T.TInt in
          Some
            ( sm @ sd @ [ Check (Dim { m = Var vm; rank; index = ed; span }) ],
              MDim (Var vm, ed) )
      | _ -> None)
  | "readMatrix", [ { A.e = A.StrLit path; _ } ] ->
      let tmp = L.fresh t "rd" in
      L.add_pending t tmp;
      Some
        ( [ Decl (T.to_ctype rty, tmp, Some (MRead (Str path))) ],
          Var tmp )
  | "readMatrix", _ -> None
  | "writeMatrix", [ { A.e = A.StrLit path; _ }; m ] ->
      let sm, vm = lower_operand t ~span m in
      Some (sm @ [ MWrite (Str path, Var vm) ], Int 0)
  | _ -> None
