(** Semantic analysis contributed by the matrix extension (§III-A): the
    "extended type system [that] is able to verify that these operations
    are only performed on matrices of the same type and rank", the
    with-loop arity checks of §III-A4, matrixMap signature checks, and the
    classification of every subscript item into the §III-A3 indexing
    modes. *)

module C = Cminus.Check
module T = Cminus.Types
module A = Cminus.Ast
module S = Runtime.Scalar
module Nd = Runtime.Ndarray

let elem_of_ty_expr t (te : A.ty_expr) span : Nd.elem =
  match te with
  | A.TyInt -> Nd.EInt
  | A.TyFloat -> Nd.EFloat
  | A.TyBool -> Nd.EBool
  | _ ->
      C.error t span "matrices may contain int, bool or float elements only";
      Nd.EInt

let h_ty t (ext : A.ext_ty) span : T.ty option =
  match ext with
  | Nodes.TyMatrix (elem_te, rank) ->
      Some (T.TMat (elem_of_ty_expr t elem_te span, rank))
  | _ -> None

(* --- operators (§III-A2) --------------------------------------------------------- *)

let promote_elem (a : Nd.elem) (b : Nd.elem) : Nd.elem option =
  match (a, b) with
  | Nd.EInt, Nd.EInt -> Some Nd.EInt
  | (Nd.EFloat | Nd.EInt), (Nd.EFloat | Nd.EInt) -> Some Nd.EFloat
  | _ -> None

let scalar_elem = function
  | T.TInt -> Some Nd.EInt
  | T.TFloat -> Some Nd.EFloat
  | T.TBool -> Some Nd.EBool
  | _ -> None

let rec h_binop t (op : A.binop) ta tb span : T.ty option =
  match (op, ta, tb) with
  (* range construction x1::x2 : a 1-D integer vector *)
  | A.BExt o, T.TInt, T.TInt when o = Nodes.op_range ->
      Some (T.TMat (Nd.EInt, 1))
  (* elementwise .* *)
  | A.BExt o, T.TMat (e1, r1), T.TMat (e2, r2) when o = Nodes.op_dotstar ->
      if e1 <> e2 || r1 <> r2 then begin
        C.error t span ".* requires matrices of the same type and rank";
        Some ta
      end
      else if e1 = Nd.EBool then begin
        C.error t span ".* on boolean matrices";
        Some ta
      end
      else Some ta
  (* matrix (.) matrix arithmetic: * is linear-algebra multiplication,
     everything else elementwise *)
  | A.BArith S.Mul, T.TMat (e1, r1), T.TMat (e2, r2) ->
      if e1 <> e2 then begin
        C.error t span "* requires matrices of the same element type";
        Some ta
      end
      else if r1 <> 2 || r2 <> 2 then begin
        C.error t span
          "matrix multiplication requires rank-2 operands (use .* for \
           elementwise)";
        Some ta
      end
      else if e1 = Nd.EBool then begin
        C.error t span "matrix multiplication on boolean matrices";
        Some ta
      end
      else Some (T.TMat (e1, 2))
  | A.BArith aop, T.TMat (e1, r1), T.TMat (e2, r2) ->
      if e1 <> e2 || r1 <> r2 then begin
        C.error t span "%s requires matrices of the same type and rank"
          (S.arith_name aop);
        Some ta
      end
      else if e1 = Nd.EBool then begin
        C.error t span "arithmetic on boolean matrices";
        Some ta
      end
      else if aop = S.Mod && e1 <> Nd.EInt then begin
        C.error t span "%% requires integer matrices";
        Some ta
      end
      else Some (T.TMat (e1, r1))
  (* matrix (.) scalar, in both orders *)
  | A.BArith aop, T.TMat (e, r), sc when T.is_scalar sc -> (
      match scalar_elem sc with
      | Some se when aop = S.Mod ->
          if e = Nd.EInt && se = Nd.EInt then Some (T.TMat (Nd.EInt, r))
          else begin
            C.error t span "%% requires integer operands";
            Some ta
          end
      | Some se -> (
          match promote_elem e se with
          | Some e' -> Some (T.TMat (e', r))
          | None ->
              C.error t span "arithmetic between %s and %s" (T.to_string ta)
                (T.to_string sc);
              Some ta)
      | None -> None)
  | A.BArith _, sc, (T.TMat _ as m) when T.is_scalar sc ->
      h_binop t op m sc span
  (* comparisons produce boolean matrices (logical indexing, Fig 4) *)
  | A.BCmp _, T.TMat (e1, r1), T.TMat (e2, r2) ->
      if e1 <> e2 || r1 <> r2 then begin
        C.error t span "comparison requires matrices of the same type and rank";
        Some (T.TMat (Nd.EBool, r1))
      end
      else Some (T.TMat (Nd.EBool, r1))
  | A.BCmp _, T.TMat (e, r), sc when T.is_scalar sc -> (
      match scalar_elem sc with
      | Some se when promote_elem e se <> None || e = se ->
          Some (T.TMat (Nd.EBool, r))
      | _ ->
          C.error t span "comparison between %s and %s" (T.to_string ta)
            (T.to_string sc);
          Some (T.TMat (Nd.EBool, r)))
  | A.BCmp _, sc, (T.TMat _ as m) when T.is_scalar sc -> h_binop t op m sc span
  (* && and || on boolean matrices *)
  | A.BLogic _, T.TMat (Nd.EBool, r1), T.TMat (Nd.EBool, r2) ->
      if r1 <> r2 then
        C.error t span "logical operator requires matrices of the same rank";
      Some (T.TMat (Nd.EBool, r1))
  | _ -> None

let h_unop t (op : A.unop) ta span : T.ty option =
  match (op, ta) with
  | A.UNeg, T.TMat ((Nd.EInt | Nd.EFloat), _) -> Some ta
  | A.UNot, T.TMat (Nd.EBool, _) -> Some ta
  | A.UNeg, T.TMat (Nd.EBool, _) ->
      C.error t span "negation of a boolean matrix";
      Some ta
  | _ -> None

(* --- subscripting (§III-A3) -------------------------------------------------------- *)

(** Classification of one index item, shared with the lowering. *)
type index_kind =
  | KAt  (** scalar int: collapses the dimension *)
  | KAll  (** [:] *)
  | KMask  (** 1-D boolean matrix: logical indexing *)
  | KGather  (** 1-D integer matrix: range / gather indexing *)

let classify_index t (base_ty : T.ty) (d : int) (ix : A.index) : index_kind =
  match ix with
  | A.IAll _ -> KAll
  | A.IExpr e -> (
      let saved = t.C.index_ctx in
      t.C.index_ctx <- Some (base_ty, d);
      let te = C.check_expr t e in
      t.C.index_ctx <- saved;
      match te with
      | T.TInt -> KAt
      | T.TMat (Nd.EBool, 1) -> KMask
      | T.TMat (Nd.EInt, 1) -> KGather
      | _ ->
          C.error t e.A.espan
            "index must be an integer, a boolean vector (logical indexing) \
             or an integer vector (gather), got %s"
            (T.to_string te);
          KAt)

let h_subscript t (base_ty : T.ty) (indices : A.index list) span : T.ty option =
  match base_ty with
  | T.TMat (elem, rank) ->
      if List.length indices <> rank then begin
        C.error t span
          "rank-%d matrix subscripted with %d indices (one per dimension \
           required)"
          rank (List.length indices);
        (* still check the index expressions for secondary errors *)
        List.iteri (fun d ix -> ignore (classify_index t base_ty d ix)) indices;
        Some (T.TMat (elem, rank))
      end
      else begin
        let kinds = List.mapi (fun d ix -> classify_index t base_ty d ix) indices in
        let kept =
          List.length (List.filter (fun k -> k <> KAt) kinds)
        in
        if kept = 0 then Some (T.elem_ty elem)
        else Some (T.TMat (elem, kept))
      end
  | _ -> None

(** Scalar fill into a selected region: [labels[mask, :] = 0]. *)
let h_assign _t ~dst ~src _span =
  match (dst, src) with
  | T.TMat (e, _), sc when T.is_scalar sc -> (
      match scalar_elem sc with
      | Some se -> se = e || promote_elem e se = Some e
      | None -> false)
  | _ -> false

(* --- builtins ------------------------------------------------------------------------ *)

let h_call t (name : string) (args : A.expr list) span
    ~(expected : T.ty option) : T.ty option =
  match name with
  | "dimSize" -> (
      match args with
      | [ m; d ] ->
          let rank =
            match C.check_expr t m with
            | T.TMat (_, r) -> Some r
            | ty ->
                C.error t m.A.espan "dimSize expects a matrix, got %s"
                  (T.to_string ty);
                None
          in
          (match C.check_expr t d with
          | T.TInt -> ()
          | ty ->
              C.error t d.A.espan "dimSize expects an int dimension, got %s"
                (T.to_string ty));
          (* a literal dimension is checked here; lowering checks a
             computed one where it runs *)
          let literal =
            match d.A.e with
            | A.IntLit k -> Some k
            | A.Un (A.UNeg, { A.e = A.IntLit k; _ }) -> Some (-k)
            | _ -> None
          in
          (match (rank, literal) with
          | Some r, Some k when k < 0 || k >= r ->
              C.error t d.A.espan
                "dimSize: dimension %d out of range for a rank-%d matrix" k r
          | _ -> ());
          Some T.TInt
      | _ ->
          C.error t span "dimSize expects (matrix, dimension)";
          Some T.TInt)
  | "readMatrix" -> (
      match args with
      | [ p ] -> (
          (match C.check_expr t p with
          | T.TStr -> ()
          | ty ->
              C.error t p.A.espan "readMatrix expects a path string, got %s"
                (T.to_string ty));
          match expected with
          | Some (T.TMat _ as ty) -> Some ty
          | _ ->
              C.error t span
                "readMatrix needs a matrix-typed context (declare the \
                 variable with its Matrix type)";
              Some (T.TMat (Nd.EFloat, 1)))
      | _ ->
          C.error t span "readMatrix expects a single path argument";
          Some (T.TMat (Nd.EFloat, 1)))
  | "writeMatrix" -> (
      match args with
      | [ p; m ] ->
          (match C.check_expr t p with
          | T.TStr -> ()
          | ty ->
              C.error t p.A.espan "writeMatrix expects a path string, got %s"
                (T.to_string ty));
          (match C.check_expr t m with
          | T.TMat _ -> ()
          | ty ->
              C.error t m.A.espan "writeMatrix expects a matrix, got %s"
                (T.to_string ty));
          Some T.TVoid
      | _ ->
          C.error t span "writeMatrix expects (path, matrix)";
          Some T.TVoid)
  | _ -> None

(* --- extension expressions ------------------------------------------------------------- *)

let scalar_result t (e : A.expr) what : T.ty =
  let ty = C.check_expr t e in
  if not (T.is_scalar ty) then
    C.error t e.A.espan "%s must be a scalar, got %s" what (T.to_string ty);
  ty

let h_expr t (ext : A.ext_expr) span ~(expected : T.ty option) : T.ty option =
  ignore expected;
  match ext with
  | Nodes.EEnd -> (
      match t.C.index_ctx with
      | Some _ -> Some T.TInt
      | None ->
          C.error t span "'end' is only meaningful inside a matrix subscript";
          Some T.TInt)
  | Nodes.EInit (te, dims) -> (
      let ty = C.resolve_ty t te span in
      match ty with
      | T.TMat (_, r) ->
          if List.length dims <> r then
            C.error t span "init: rank-%d matrix needs %d extents, got %d" r r
              (List.length dims);
          List.iter
            (fun d ->
              match C.check_expr t d with
              | T.TInt -> ()
              | dty ->
                  C.error t d.A.espan "init extent must be int, got %s"
                    (T.to_string dty))
            dims;
          Some ty
      | _ ->
          C.error t span "init expects a Matrix type, got %s" (T.to_string ty);
          Some ty)
  | Nodes.EWith (gen, op) ->
      (* §III-A4: bound arity = index arity (= shape arity for genarray). *)
      let n = List.length gen.Nodes.ids in
      if List.length gen.Nodes.lo <> n then
        C.error t gen.Nodes.gspan
          "with-loop: %d lower bound(s) for %d index variable(s)"
          (List.length gen.Nodes.lo) n;
      if List.length gen.Nodes.hi <> n then
        C.error t gen.Nodes.gspan
          "with-loop: %d upper bound(s) for %d index variable(s)"
          (List.length gen.Nodes.hi) n;
      let dup =
        List.find_opt
          (fun id ->
            List.length (List.filter (String.equal id) gen.Nodes.ids) > 1)
          gen.Nodes.ids
      in
      Option.iter
        (fun id ->
          C.error t gen.Nodes.gspan "duplicate with-loop index '%s'" id)
        dup;
      List.iter
        (fun b -> ignore (scalar_result t b "with-loop bound")) gen.Nodes.lo;
      List.iter
        (fun b -> ignore (scalar_result t b "with-loop bound")) gen.Nodes.hi;
      C.in_scope t (fun () ->
          List.iter
            (fun id -> C.declare t gen.Nodes.gspan id T.TInt)
            gen.Nodes.ids;
          match op with
          | Nodes.OGenarray (shape, body) ->
              if List.length shape <> n then
                C.error t span
                  "genarray: shape has %d dimension(s) but the generator \
                   binds %d index variable(s)"
                  (List.length shape) n;
              List.iter
                (fun d ->
                  match C.check_expr t d with
                  | T.TInt -> ()
                  | dty ->
                      C.error t d.A.espan "genarray extent must be int, got %s"
                        (T.to_string dty))
                shape;
              let bty = C.check_expr t body in
              (match T.elem_of_ty bty with
              | Some elem -> Some (T.TMat (elem, List.length shape))
              | None ->
                  C.error t body.A.espan
                    "genarray body must be a scalar, got %s" (T.to_string bty);
                  Some (T.TMat (Nd.EFloat, List.length shape)))
          | Nodes.OFold (fop, base, body) ->
              let tb = scalar_result t base "fold base value" in
              let tv = scalar_result t body "fold body" in
              (match fop with
              | Nodes.FPlus | Nodes.FTimes | Nodes.FMin | Nodes.FMax ->
                  if T.equal tb T.TBool || T.equal tv T.TBool then
                    C.error t span "fold %s over booleans"
                      (Nodes.foldop_name fop));
              (match T.promote tb tv with
              | Some ty -> Some ty
              | None ->
                  C.error t span "fold base %s incompatible with body %s"
                    (T.to_string tb) (T.to_string tv);
                  Some tb))
  | Nodes.EMatrixMap (fname, m, dims) -> (
      let mty = C.check_expr t m in
      match mty with
      | T.TMat (elem, rank) -> (
          let k = List.length dims in
          List.iter
            (fun d ->
              if d < 0 || d >= rank then
                C.error t span "matrixMap dimension %d out of range for %s" d
                  (T.to_string mty))
            dims;
          if List.sort_uniq compare dims <> List.sort compare dims then
            C.error t span "matrixMap dimensions must be distinct";
          match Hashtbl.find_opt t.C.funcs fname with
          | None ->
              C.error t span "matrixMap: undefined function '%s'" fname;
              Some mty
          | Some ([ T.TMat (pe, pr) ], T.TMat (re_, rr)) ->
              if pe <> elem then
                C.error t span
                  "matrixMap: %s takes Matrix %s but the data is Matrix %s"
                  fname (Nd.elem_name pe) (Nd.elem_name elem);
              if pr <> k || rr <> k then
                C.error t span
                  "matrixMap: %s must map rank-%d to rank-%d matrices (got \
                   rank %d -> %d); the result always has the shape and rank \
                   of the input (§III-A5)"
                  fname k k pr rr;
              Some (T.TMat (re_, rank))
          | Some _ ->
              C.error t span
                "matrixMap: %s must take one matrix and return a matrix"
                fname;
              Some mty)
      | ty ->
          C.error t m.A.espan "matrixMap expects a matrix, got %s"
            (T.to_string ty);
          Some ty)
  | _ -> None

let h_stmt _t _ext _span = false

let hooks : C.hooks =
  {
    (C.no_hooks "matrix") with
    C.h_ty;
    h_expr;
    h_stmt;
    h_binop;
    h_unop;
    h_call;
    h_subscript;
    h_assign;
  }
