(** Executor for lowered programs.

    The paper compiles the generated C with gcc and runs it on a 2×6-core
    machine; in this reproduction the lowered IR is also executed directly
    (see DESIGN.md §3d).  {!run} compiles the program once — every
    variable to a slot of a frame, every call to its callee, every
    [readMatrix]/[writeMatrix] literal to its data file, every expression
    and statement to an OCaml closure over a frame — and then calls the
    entry function.  Scalar code evaluates with C semantics, [ParFor]
    regions dispatch onto the enhanced fork-join domain pool of
    {!Runtime.Pool}, vector operations execute 4-lane f32 arithmetic via
    {!Runtime.Simd}, and every matrix allocation is charged to the run's
    own reference-counting ledger ({!Runtime.Rc}), so tests can assert
    the no-leak invariant of the generated code. *)

open Cir.Ir
module S = Runtime.Scalar
module Nd = Runtime.Ndarray
module Profile = Support.Profile

type value =
  | VUnit
  | VNull  (** uninitialised matrix handle (C's NULL pointer) *)
  | VScal of S.t
  | VMat of Nd.t Runtime.Rc.t
  | VVec of Runtime.Simd.v
  | VTuple of value array

exception Interp_error of string

exception Runtime_error of string * Support.Pos.span
(** A runtime failure enriched with the provenance span of the innermost
    [Located] block or loop that was executing — the driver renders it
    with the same caret excerpt as a static diagnostic. *)

let err fmt = Format.kasprintf (fun m -> raise (Interp_error m)) fmt

(* Interpreter telemetry: how much work the lowered program actually did
   (parallel regions, call volume, element stores; allocation traffic is
   [rc.allocs]). *)
let c_parfor = Support.Telemetry.counter "interp.parfor_regions"
let c_calls = Support.Telemetry.counter "interp.calls"
let c_stores = Support.Telemetry.counter "interp.elem_stores"

let rec pp_value ppf = function
  | VUnit -> Fmt.string ppf "void"
  | VNull -> Fmt.string ppf "NULL"
  | VScal s -> S.pp ppf s
  | VMat rc -> Nd.pp ppf (Runtime.Rc.get rc)
  | VVec v -> Runtime.Simd.pp ppf v
  | VTuple vs ->
      Fmt.pf ppf "(%a)" (Fmt.array ~sep:(Fmt.any ", ") pp_value) vs

let scal = function
  | VScal s -> s
  | v -> err "expected scalar, got %a" pp_value v

let mat = function
  | VMat rc -> Runtime.Rc.get rc
  | VNull -> err "use of an uninitialised matrix"
  | v -> err "expected matrix, got %a" pp_value v

let vecv = function
  | VVec v -> v
  | v -> err "expected vector, got %a" pp_value v

let default_of_type = function
  | CInt -> VScal (S.I 0)
  | CFloat -> VScal (S.F 0.)
  | CBool -> VScal (S.B false)
  | CVec -> VVec (Runtime.Simd.splat 0. ~width:Runtime.Simd.default_width)
  | CVoid -> VUnit
  | CMat _ -> VNull
  | CTuple _ -> VNull

(** [data_path ~dir path] — the file a program's [readMatrix path] /
    [writeMatrix path] resolves to under [dir]: path separators flatten
    to ['_'], as in both backends.  [dir] is named by its real path, as
    the native binary, which runs in it, names it. *)
let data_path ~dir path =
  let dir = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  Filename.concat dir (String.map (function '/' | '\\' -> '_' | c -> c) path)

(* --- frames ------------------------------------------------------------------ *)

(* One frame per call and one per [ParFor] iteration.  A variable lives in
   a slot of the frame of the call or iteration that declared it.  An
   iteration reaches the variables around its loop through [up], so pool
   domains share those (as the emitted OpenMP C does) but never each
   other's body locals. *)
type frame = {
  slots : value array;
  up : frame;  (** the frame around a [ParFor] iteration's loop *)
  mutable spawned : spawned list;
      (** Cilk children of this call, newest first; only used on a call's
          frame (each call has its own, so recursive spawns in different
          domains never share a list) *)
}

and spawned = { s_dom : value Domain.t; s_target : (frame * int) option }

(* [up] of a call's frame: a function sees no enclosing variables. *)
let rec no_frame = { slots = [||]; up = no_frame; spawned = [] }

let rec frame_up fr depth = if depth = 0 then fr else frame_up fr.up (depth - 1)

(* --- control flow ------------------------------------------------------------ *)

exception Return_exc of value
exception Break_exc
exception Continue_exc

(* --- provenance enrichment ------------------------------------------------- *)

(* Runtime failures that deserve a source location.  Anything else —
   control flow, assertion failures, already-located errors — passes
   through untouched. *)
let message_of_exn = function
  | Interp_error m
  | Runtime.Shape.Shape_error m
  | Nd.Type_error m
  | Nd.Io_error m
  | S.Type_error m ->
      Some m
  | Runtime.Rc.Use_after_free id ->
      Some (Printf.sprintf "use of matrix cell #%d after its count reached 0" id)
  | Runtime.Rc.Double_free id ->
      Some (Printf.sprintf "reference count of matrix cell #%d went negative" id)
  | Runtime.Rc.Borrowed_release -> Some view_release_message
  | Support.Failpoint.Injected n ->
      Some (Printf.sprintf "injected fault at failpoint %s" n)
  | _ -> None

(* [locate sp f x] — run [f x]; if a runtime failure escapes, re-raise it
   carrying [sp] (the innermost enclosing provenance wins, so an already
   located error is not re-wrapped).  A {!Runtime.Limits.Resource_limit}
   keeps its own exception but gains the span. *)
let locate sp f x =
  try f x with
  | (Return_exc _ | Break_exc | Continue_exc) as e -> raise_notrace e
  | Runtime_error _ as e -> raise e
  | Runtime.Limits.Resource_limit ({ v_span = None; _ } as v) ->
      raise (Runtime.Limits.Resource_limit { v with v_span = Some sp })
  | e -> (
      match message_of_exn e with
      | Some m -> raise (Runtime_error (m, sp))
      | None -> raise e)

(* --- compile-time scopes ----------------------------------------------------- *)

module Names = Map.Make (String)

(* The compile-time twin of one runtime frame: its [ParFor] nesting level
   within the call (0 = the call's own frame) and how many slots it
   needs so far. *)
type cframe = { level : int; mutable size : int }

(* A scope: the names visible at the statement being compiled, each bound
   to its (frame level, slot).  A child scope starts as a copy of its
   parent's map, so leaving it restores the parent's bindings. *)
type scope = { frame : cframe; mutable names : (int * int) Names.t }

let child sc = { sc with names = sc.names }

let iteration_scope sc =
  { frame = { level = sc.frame.level + 1; size = 0 }; names = sc.names }

(* A fresh slot for every [Decl]: a second [Decl] of a name rebinds it for
   later statements without touching the first one's slot. *)
let declare sc name =
  let slot = sc.frame.size in
  sc.frame.size <- slot + 1;
  sc.names <- Names.add name (sc.frame.level, slot) sc.names;
  slot

(* [Some (depth, slot)]: the slot of the innermost visible binding, in the
   frame [depth] [up] links away from the current one. *)
let resolve sc name =
  Option.map
    (fun (level, slot) -> (sc.frame.level - level, slot))
    (Names.find_opt name sc.names)

let read_var sc name : frame -> value =
  match resolve sc name with
  | None -> fun _ -> err "unbound variable %s" name
  | Some (0, s) -> fun fr -> fr.slots.(s)
  | Some (1, s) -> fun fr -> fr.up.slots.(s)
  | Some (d, s) -> fun fr -> (frame_up fr d).slots.(s)

let write_var sc name : frame -> value -> unit =
  match resolve sc name with
  | None -> fun _ _ -> err "unbound variable %s" name
  | Some (0, s) -> fun fr v -> fr.slots.(s) <- v
  | Some (d, s) -> fun fr v -> (frame_up fr d).slots.(s) <- v

(* --- compiled functions ------------------------------------------------------ *)

(* A function after compilation.  Calls are bound to this record before
   every body is compiled (recursion), so the frame size and the body are
   filled in afterwards. *)
type fn = {
  name : string;
  arity : int;  (** parameters occupy slots [0 .. arity-1] *)
  mutable size : int;  (** slots in a call's frame *)
  mutable body : frame -> unit;
}

type ctx = {
  pool : Runtime.Pool.t option;  (** [None] = run ParFor sequentially *)
  dir : unit -> string;
      (** the directory holding the program's matrix files; asked for only
          by a program that names one, so a run that does no I/O makes no
          scratch directory *)
  fns : (string * fn) list;  (** the first definition of a name wins *)
  ledger : Runtime.Rc.ledger;  (** where this run's matrices are counted *)
}

let sync fr =
  (* join in spawn order; propagate the first child exception *)
  let entries = List.rev fr.spawned in
  fr.spawned <- [];
  let failure = ref None in
  List.iter
    (fun e ->
      match Domain.join e.s_dom with
      | v -> Option.iter (fun (f, s) -> f.slots.(s) <- v) e.s_target
      | exception exn -> if !failure = None then failure := Some exn)
    entries;
  match !failure with Some exn -> raise exn | None -> ()

let call fn (argv : value array) : value =
  Support.Telemetry.bump c_calls;
  let n = Array.length argv in
  if n <> fn.arity then err "%s expects %d arguments, got %d" fn.name fn.arity n;
  let fr = { slots = Array.make fn.size VUnit; up = no_frame; spawned = [] } in
  Array.blit argv 0 fr.slots 0 n;
  (* Cilk semantics: every function has an implicit sync before returning;
     [fr] is this invocation's frame, so the spawn list is per-call and
     per-domain. *)
  match fn.body fr with
  | () ->
      sync fr;
      VUnit
  | exception Return_exc v ->
      sync fr;
      v
  | exception exn ->
      (try sync fr with _ -> ());
      raise exn

let rec rc_adjust f v =
  (* Retain/release of NULL is a no-op (C semantics); tuples adjust every
     matrix they hold (the lowered struct owns its fields). *)
  match v with
  | VNull -> ()
  | VMat rc -> f rc
  | VTuple vs -> Array.iter (rc_adjust f) vs
  | v -> err "rc operation on %a" pp_value v

(* The one place a run allocates a matrix: its payload bytes, at the
   native runtime's element widths, go to the run's ledger and, when
   profiling, to the executing statement's row. *)
let alloc_mat cx m =
  let bytes = Nd.size m * Nd.elem_bytes (Nd.elem m) in
  if Profile.is_enabled () then Profile.on_alloc bytes;
  VMat (Runtime.Rc.alloc ~ledger:cx.ledger ~bytes m)

let flat_error m o =
  err "flat offset %d out of bounds for %s" o
    (Runtime.Shape.to_string (Nd.shape m))

let in_bounds m ~dim ~span i =
  let extent = Nd.dim_size m dim in
  if i < 0 || i >= extent then
    raise (Runtime_error (bound_message ~index:i ~dim ~extent, span))

let const v _ = v
let s_true = S.B true
let s_false = S.B false
let return_unit = Return_exc VUnit

(* --- the compiler -------------------------------------------------------------- *)

(* Operands evaluate in a fixed order, which decides the side effects and
   the first error a program sees: a [Binop] or [Min] evaluates its right
   operand first, [MGetFlat] and [MSetFlat] the matrix (and a subscript's
   checks) before the offset and the stored value, [Checked] its checks
   in order before its value, argument and tuple lists left to right.
   Errors that the type checker rules out for source programs (an
   unbound name, an undefined function, a non-literal path) compile to a
   closure that raises when it runs, never at compile time. *)

let rec expr (cx : ctx) (sc : scope) (e : expr) : frame -> value =
  let ex = expr cx sc and sx = scalar cx sc in
  match e with
  | Int i -> const (VScal (S.I i))
  | Float f -> const (VScal (S.F f))
  | Bool b -> const (VScal (S.B b))
  | Str _ -> fun _ -> err "string literal outside readMatrix/writeMatrix"
  | Var v -> read_var sc v
  | Binop _ | Unop _ | Min _ | MGetFlat _ | MDim _ | MSize _ | VecHsum _
  | Checked _ ->
      let s = sx e in
      fun fr -> VScal (s fr)
  | Call (name, args) -> (
      match List.assoc_opt name cx.fns with
      | None -> fun _ -> err "undefined function %s" name
      | Some fn ->
          let args = Array.of_list (List.map ex args) in
          fun fr -> call fn (Array.map (fun a -> a fr) args))
  | TupleE es ->
      let es = Array.of_list (List.map ex es) in
      fun fr -> VTuple (Array.map (fun e -> e fr) es)
  | Field (a, i) -> (
      let a = ex a in
      fun fr ->
        match a fr with
        | VTuple vs when i < Array.length vs -> vs.(i)
        | v -> err "field .f%d of non-tuple %a" i pp_value v)
  | MAlloc { elem; dims; zeroed = _ } ->
      (* OCaml arrays start initialised, so every payload starts zeroed *)
      let dims = Array.of_list (List.map sx dims) in
      fun fr ->
        let sh = Array.map (fun d -> S.to_int (d fr)) dims in
        alloc_mat cx (Nd.create elem sh)
  | MView { m; offset; dims; _ } ->
      (* a borrowed view: no allocation, so no ledger and no failpoint *)
      let m = ex m and offset = sx offset in
      let dims = Array.of_list (List.map sx dims) in
      fun fr ->
        let base = mat (m fr) in
        let off = S.to_int (offset fr) in
        let sh = Array.map (fun d -> S.to_int (d fr)) dims in
        VMat (Runtime.Rc.borrow (Nd.view base ~off sh))
  | MRead (Str p) ->
      let path = data_path ~dir:(cx.dir ()) p in
      fun _ -> alloc_mat cx (Nd.read_file path)
  | MRead _ -> fun _ -> err "readMatrix requires a literal path"
  | VecSplat a ->
      let a = sx a in
      fun fr ->
        VVec
          (Runtime.Simd.splat (S.to_float (a fr))
             ~width:Runtime.Simd.default_width)
  | VecGather (me, base, stride) ->
      let me = ex me and base = sx base and stride = sx stride in
      fun fr ->
        let m = mat (me fr) in
        let b = S.to_int (base fr) in
        let s = S.to_int (stride fr) in
        VVec
          (Array.init Runtime.Simd.default_width (fun k ->
               let o = b + (k * s) in
               if o < 0 || o >= Nd.size m then
                 err "vector lane offset %d out of bounds" o
               else Runtime.Simd.to_f32 (S.to_float (Nd.get_flat m o))))
  | VecBin (op, a, b) ->
      let a = ex a and b = ex b in
      let f =
        match op with
        | S.Add -> Some Runtime.Simd.add
        | S.Sub -> Some Runtime.Simd.sub
        | S.Mul -> Some Runtime.Simd.mul
        | S.Div -> Some Runtime.Simd.div
        | S.Mod -> None
      in
      fun fr ->
        let x = vecv (a fr) in
        let y = vecv (b fr) in
        (match f with
        | Some f -> VVec (f x y)
        | None -> err "vector modulo unsupported")

(* [scalar cx sc e] — [e] compiled for a context that consumes a scalar
   (an operand, an offset, a bound, a condition, a stored element): the
   [scal] of its value.  Scalar-valued nodes compute their [S.t]
   directly, so an intermediate result is boxed as a [value] only where
   it lands in a slot, an argument, a tuple or a return. *)
and scalar cx sc (e : expr) : frame -> S.t =
  let ex = expr cx sc and sx = scalar cx sc in
  match e with
  | Int i -> const (S.I i)
  | Float f -> const (S.F f)
  | Bool b -> const (S.B b)
  | Var v -> (
      match resolve sc v with
      | Some (0, s) -> fun fr -> scal fr.slots.(s)
      | _ ->
          let v = read_var sc v in
          fun fr -> scal (v fr))
  | Binop (Arith op, a, b) ->
      let a = sx a and b = sx b in
      fun fr ->
        let y = b fr in
        S.arith op (a fr) y
  | Binop (Cmp op, a, b) ->
      let a = sx a and b = sx b in
      fun fr ->
        let y = b fr in
        S.cmp op (a fr) y
  | Binop (Logic S.And, a, b) ->
      (* C short-circuit semantics *)
      let a = sx a and b = sx b in
      fun fr -> if S.truthy (a fr) && S.truthy (b fr) then s_true else s_false
  | Binop (Logic S.Or, a, b) ->
      let a = sx a and b = sx b in
      fun fr -> if S.truthy (a fr) || S.truthy (b fr) then s_true else s_false
  | Unop (Neg, a) ->
      let a = sx a in
      fun fr -> S.neg (a fr)
  | Unop (Not, a) ->
      let a = sx a in
      fun fr -> S.not_ (a fr)
  | Unop (IntOfFloat, a) ->
      let a = sx a in
      fun fr -> S.I (S.to_int (a fr))
  | Unop (FloatOfInt, a) ->
      let a = sx a in
      fun fr -> S.F (S.to_float (a fr))
  | Min (a, b) ->
      let a = sx a and b = sx b in
      fun fr ->
        let y = S.to_int (b fr) in
        S.I (min (S.to_int (a fr)) y)
  | MGetFlat (me, off) -> (
      match subscript cx sc me off with
      | Some (take, off) ->
          let off = sx off in
          fun fr ->
            let m = take fr in
            let o = S.to_int (off fr) in
            if o < 0 || o >= Nd.size m then flat_error m o else Nd.get_flat m o
      | None ->
          let me = ex me and off = sx off in
          fun fr ->
            let m = mat (me fr) in
            let o = S.to_int (off fr) in
            if o < 0 || o >= Nd.size m then flat_error m o else Nd.get_flat m o)
  | MDim (me, d) ->
      let me = ex me and d = sx d in
      fun fr ->
        let m = mat (me fr) in
        S.I (Nd.dim_size m (S.to_int (d fr)))
  | MSize me ->
      let me = ex me in
      fun fr -> S.I (Nd.size (mat (me fr)))
  | VecHsum a ->
      let a = ex a in
      fun fr -> S.F (Runtime.Simd.hsum (vecv (a fr)))
  | Checked (cs, e) ->
      let cs = List.map (check cx sc) cs and e = sx e in
      fun fr ->
        List.iter (fun c -> c fr) cs;
        e fr
  | Str _ | Call _ | TupleE _ | Field _ | MAlloc _ | MView _ | MRead _
  | VecSplat _ | VecGather _ | VecBin _ ->
      let e = ex e in
      fun fr -> scal (e fr)

(* A subscript's buffer access [me[off]], when every check [off]
   carries bounds [me] itself: a closure taking the matrix once and
   running the checks against it, and the unchecked offset. *)
and subscript cx sc me off =
  match off with
  | Checked ((Bound { span; _ } :: _ as cs), off)
    when List.for_all (function Bound b -> b.m = me | _ -> false) cs ->
      let me = expr cx sc me in
      let cs =
        Array.of_list
          (List.filter_map
             (function
               | Bound { dim; index; span; _ } ->
                   let index = scalar cx sc index in
                   Some (fun fr m -> in_bounds m ~dim ~span (S.to_int (index fr)))
               | Same _ | Null _ | Dim _ -> None)
             cs)
      in
      Some
        ( (fun fr ->
            match me fr with
            | VNull -> raise (Runtime_error (null_message, span))
            | v ->
                let m = mat v in
                for i = 0 to Array.length cs - 1 do
                  cs.(i) fr m
                done;
                m),
          off )
  | _ -> None

(* A failing check raises its report at its own span, which [locate]
   passes through unchanged. *)
and check cx sc (c : check) : frame -> unit =
  match c with
  | Bound { m; dim; index; span } ->
      let m = expr cx sc m and index = scalar cx sc index in
      fun fr -> (
        match m fr with
        | VMat rc ->
            in_bounds (Runtime.Rc.get rc) ~dim ~span (S.to_int (index fr))
        | VNull -> raise (Runtime_error (null_message, span))
        | v -> err "expected matrix, got %a" pp_value v)
  | Same { what; a; b; span } ->
      let a = scalar cx sc a and b = scalar cx sc b in
      fun fr ->
        let x = S.to_int (a fr) and y = S.to_int (b fr) in
        if x <> y then raise (Runtime_error (same_message ~what x y, span))
  | Null { m; span } -> (
      let m = expr cx sc m in
      fun fr ->
        match m fr with
        | VNull -> raise (Runtime_error (null_message, span))
        | _ -> ())
  | Dim { m; index; span; _ } -> (
      let m = expr cx sc m and index = scalar cx sc index in
      fun fr ->
        match m fr with
        | VMat rc -> (
            try ignore (Nd.dim_size (Runtime.Rc.get rc) (S.to_int (index fr)))
            with Runtime.Shape.Shape_error msg ->
              raise (Runtime_error (msg, span)))
        | VNull -> raise (Runtime_error (null_message, span))
        | v -> err "expected matrix, got %a" pp_value v)

(* A statement list in scope [sc]: [Decl]s bind in [sc] itself, for the
   statements after them. *)
and stmts cx sc (ss : stmt list) : frame -> unit =
  (* in order: a [Decl] binds for the statements compiled after it *)
  let codes = List.rev (List.fold_left (fun acc s -> stmt cx sc s :: acc) [] ss) in
  match codes with
  | [] -> fun _ -> ()
  | [ a ] -> a
  | [ a; b ] ->
      fun fr ->
        a fr;
        b fr
  | [ a; b; c ] ->
      fun fr ->
        a fr;
        b fr;
        c fr
  | _ ->
      let codes = Array.of_list codes in
      fun fr ->
        for i = 0 to Array.length codes - 1 do
          codes.(i) fr
        done

(* A braced scope: [Block], an [If] branch, a loop body. *)
and block cx sc ss = stmts cx (child sc) ss

and stmt cx sc (s : stmt) : frame -> unit =
  let ex = expr cx sc and sx = scalar cx sc in
  match s with
  | Comment _ -> fun _ -> ()
  | Decl (t, name, init) ->
      (* the initialiser sees the outer binding of [name] *)
      let init =
        match (init, t) with
        | Some e, _ -> ex e
        | None, CVec -> fun _ -> default_of_type CVec
        | None, t -> const (default_of_type t)
      in
      let slot = declare sc name in
      fun fr -> fr.slots.(slot) <- init fr
  | Assign (LVar name, e) -> (
      let e = ex e in
      match resolve sc name with
      | Some (0, s) -> fun fr -> fr.slots.(s) <- e fr
      | _ ->
          let set = write_var sc name in
          fun fr -> set fr (e fr))
  | Assign (LField (LVar name, i), e) -> (
      let e = ex e in
      let get = read_var sc name and set = write_var sc name in
      fun fr ->
        let v = e fr in
        match get fr with
        | VTuple vs when i < Array.length vs ->
            let vs' = Array.copy vs in
            vs'.(i) <- v;
            set fr (VTuple vs')
        | x -> err "field assignment .f%d on %a" i pp_value x)
  | Assign (LField (LField _, _), e) ->
      let e = ex e in
      fun fr ->
        ignore (e fr);
        err "nested tuple lvalues are flattened by lowering"
  | MSetFlat (me, off, ve) -> (
      let ve = sx ve in
      match subscript cx sc me off with
      | Some (take, off) ->
          let off = sx off in
          fun fr ->
            let m = take fr in
            let o = S.to_int (off fr) in
            if o < 0 || o >= Nd.size m then flat_error m o
            else begin
              Support.Telemetry.bump c_stores;
              Nd.set_flat m o (ve fr)
            end
      | None ->
          let me = ex me and off = sx off in
          fun fr ->
            let m = mat (me fr) in
            let o = S.to_int (off fr) in
            if o < 0 || o >= Nd.size m then flat_error m o
            else begin
              Support.Telemetry.bump c_stores;
              Nd.set_flat m o (ve fr)
            end)
  | VecScatter (me, base, stride, ve) ->
      let me = ex me and base = sx base and stride = sx stride and ve = ex ve in
      fun fr ->
        let m = mat (me fr) in
        let b = S.to_int (base fr) in
        let st = S.to_int (stride fr) in
        let v = vecv (ve fr) in
        Array.iteri
          (fun k x ->
            let o = b + (k * st) in
            if o < 0 || o >= Nd.size m then
              err "scatter offset %d out of bounds" o
            else Nd.set_flat m o (S.F (Runtime.Simd.to_f32 x)))
          v
  | If (c, a, b) ->
      let c = sx c and a = block cx sc a and b = block cx sc b in
      fun fr -> if S.truthy (c fr) then a fr else b fr
  | While (c, b) ->
      let c = sx c and b = block cx sc b in
      fun fr ->
        (try
           while S.truthy (c fr) do
             Runtime.Limits.tick ();
             try b fr with Continue_exc -> ()
           done
         with Break_exc -> ())
  | For l -> for_loop cx sc l
  | ParFor l -> parfor_loop cx sc l
  | ExprS e ->
      let e = ex e in
      fun fr -> ignore (e fr)
  | Return None -> fun _ -> raise_notrace return_unit
  | Return (Some e) ->
      let e = ex e in
      fun fr -> raise_notrace (Return_exc (e fr))
  | Break -> fun _ -> raise_notrace Break_exc
  | Continue -> fun _ -> raise_notrace Continue_exc
  | RcInc e ->
      let e = ex e in
      fun fr -> rc_adjust Runtime.Rc.incr_ (e fr)
  | RcDec e ->
      let e = ex e in
      fun fr -> rc_adjust Runtime.Rc.decr_ (e fr)
  | MWrite (Str p, me) ->
      let path = data_path ~dir:(cx.dir ()) p and me = ex me in
      fun fr -> Nd.write_file path (mat (me fr))
  | MWrite _ -> fun _ -> err "writeMatrix requires a literal path"
  | Check c -> check cx sc c
  | Block b -> block cx sc b
  | Spawn (lv, fname, args) -> (
      match List.assoc_opt fname cx.fns with
      | None -> fun _ -> err "undefined function %s" fname
      | Some fn ->
          let args = Array.of_list (List.map ex args) in
          (* the spawn binds its target slot in the frame active now; the
             call's frame, [level] links up, owns the spawn list *)
          let target : frame -> (frame * int) option =
            match lv with
            | None -> fun _ -> None
            | Some (LVar v) -> (
                match resolve sc v with
                | Some (d, s) -> fun fr -> Some (frame_up fr d, s)
                | None -> fun _ -> err "unbound variable %s" v)
            | Some (LField _) ->
                fun _ -> err "spawn into a tuple field is unsupported"
          in
          let level = sc.frame.level in
          fun fr ->
            let argv = Array.map (fun a -> a fr) args in
            let s_target = target fr in
            let s_dom = Domain.spawn (fun () -> call fn argv) in
            let root = frame_up fr level in
            root.spawned <- { s_dom; s_target } :: root.spawned)
  | Sync ->
      let level = sc.frame.level in
      fun fr -> sync (frame_up fr level)
  | Located (sp, b) ->
      (* Provenance block, not a scope: the statements bind in [sc].
         Timed only for top-level straight-line code (empty frame stack,
         no active parallel region) — loops are the aggregation grain
         everywhere else, so per-statement clock reads stay out of hot
         bodies. *)
      let body = stmts cx sc b in
      let run fr =
        if
          Profile.is_enabled ()
          && Profile.depth () = 0
          && not (Profile.in_region ())
        then begin
          Profile.enter sp;
          Fun.protect ~finally:(fun () -> Profile.exit_ ()) (fun () -> body fr)
        end
        else body fr
      in
      fun fr -> locate sp run fr
  | Site (_, b) ->
      (* Decision wrapper, not a scope.  Only reachable when interpreting
         intermediate IR — a finished pipeline leaves no [Site] nodes. *)
      stmts cx sc b

(* A sequential loop runs in the current frame: the index and the body's
   locals get slots of it, rewritten on every iteration. *)
and for_loop cx sc l =
  let bound = scalar cx sc l.bound in
  let isc = child sc in
  let index = declare isc l.index in
  let body = block cx isc l.body in
  let iterate fr n =
    try
      for i = 0 to n - 1 do
        Runtime.Limits.tick ();
        fr.slots.(index) <- VScal (S.I i);
        try body fr with Continue_exc -> ()
      done
    with Break_exc -> ()
  in
  let run =
    match l.prov with
    | None -> iterate
    | Some sp -> fun fr n -> locate sp (iterate fr) n
  in
  fun fr ->
    let n = S.to_int (bound fr) in
    (* Inside a parallel region the dispatching ParFor row owns the time
       (workers would otherwise multiply-count wall clock and contend on
       the profiler mutex every iteration). *)
    match l.prov with
    | Some sp when Profile.is_enabled () && not (Profile.in_region ()) ->
        Profile.enter sp;
        Fun.protect
          ~finally:(fun () -> Profile.exit_ ~iters:n ())
          (fun () -> run fr n)
    | _ -> run fr n

(* A parallel loop gives every iteration its own frame: slot 0 holds the
   index, the body's locals follow, and [up] reaches the variables around
   the loop. *)
and parfor_loop cx sc l =
  let bound = scalar cx sc l.bound in
  let isc = iteration_scope sc in
  let index = declare isc l.index in
  let body = block cx isc l.body in
  let size = isc.frame.size in
  let iteration fr i =
    Runtime.Limits.tick ();
    let it = { slots = Array.make size VUnit; up = fr; spawned = [] } in
    it.slots.(index) <- VScal (S.I i);
    body it
  in
  let dispatch =
    match cx.pool with
    | None ->
        fun fr n ->
          for i = 0 to n - 1 do
            iteration fr i
          done
    | Some pool ->
        (* The with-loop generator guarantees disjoint index sets, so
           iterations write disjoint elements (§III-A4).  The pool's
           guided chunks load-balance bodies of uneven cost (matrixMap
           over slices, conncomp frames); the first body exception ends
           the region and re-raises at the stop barrier with its
           backtrace.  The [locate] wrapper sits outside the dispatch, so
           whatever the barrier re-raises gains this loop's provenance. *)
        fun fr n ->
          Runtime.Pool.parallel_for pool 0 n (iteration fr)
  in
  let run =
    match l.prov with
    | None -> dispatch
    | Some sp -> fun fr n -> locate sp (dispatch fr) n
  in
  let dispatched = cx.pool <> None in
  fun fr ->
    Support.Telemetry.bump c_parfor;
    let n = S.to_int (bound fr) in
    match l.prov with
    | Some sp when Profile.is_enabled () && not (Profile.in_region ()) ->
        Profile.enter sp;
        if dispatched then Profile.open_region sp;
        Fun.protect
          ~finally:(fun () ->
            Profile.exit_ ~iters:n
              ~dispatches:(if dispatched then 1 else 0)
              ~par:dispatched ())
          (fun () -> run fr n)
    | _ -> run fr n

(* Compile every function of [prog], once.  Each name is bound to its
   first definition before any body is compiled, so calls (recursive ones
   included) resolve to the callee's record directly. *)
let compile ~pool ~dir ~ledger (prog : program) =
  let defs =
    List.rev
      (List.fold_left
         (fun acc f ->
           if List.mem_assoc f.f_name acc then acc
           else
             let fn =
               {
                 name = f.f_name;
                 arity = List.length f.f_params;
                 size = 0;
                 body = (fun _ -> ());
               }
             in
             (f.f_name, (f, fn)) :: acc)
         [] prog.funcs)
  in
  let cx =
    { pool; dir; fns = List.map (fun (n, (_, fn)) -> (n, fn)) defs; ledger }
  in
  List.iter
    (fun (_, (f, fn)) ->
      (* a function body's top level shares the parameters' scope *)
      let sc = { frame = { level = 0; size = 0 }; names = Names.empty } in
      List.iter (fun (_, p) -> ignore (declare sc p)) f.f_params;
      fn.body <- stmts cx sc f.f_body;
      fn.size <- sc.frame.size)
    defs;
  cx

let run ?pool ?dir (prog : program) (args : value list) : value =
  Support.Tmpdir.with_lazy_dir ?dir ~prefix:"mmcfs" @@ fun dir ->
  let ledger = Runtime.Rc.start () in
  let cx = compile ~pool ~dir ~ledger prog in
  (* An aborted run never executes its scope-exit RcDec statements, so its
     allocations would stay live forever (a phantom leak that also keeps
     counting against --max-bytes): the run discards its ledger instead.
     The pool and every spawn have stopped by the time the failure gets
     here. *)
  try
    match List.assoc_opt prog.main cx.fns with
    | Some fn -> call fn (Array.of_list args)
    | None -> err "undefined function %s" prog.main
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Runtime.Rc.discard ledger;
    Printexc.raise_with_backtrace e bt

(** [provide_input ~dir path m] — place matrix [m] where a translated
    program's [readMatrix path] will find it. *)
let provide_input ~dir path m = Nd.write_file (data_path ~dir path) m

(** [fetch_output ~dir path] — read back a matrix the program wrote with
    [writeMatrix path]. *)
let fetch_output ~dir path = Nd.read_file (data_path ~dir path)
