(** Executor for lowered programs.

    The paper compiles the generated C with gcc and runs it on a 2×6-core
    machine; in this reproduction the lowered IR is also executed directly
    (see DESIGN.md §3d).  {!run} compiles the program once — every
    variable to an entry of the frame array its static type picks, every
    call to its callee, every [readMatrix]/[writeMatrix] literal to its
    data file, every expression and statement to an OCaml closure over a
    frame, a scalar one returning the OCaml [int], [float] or [bool]
    itself — and then calls the entry function.  Scalar code evaluates
    with C semantics, [ParFor] regions dispatch onto the enhanced
    fork-join domain pool of {!Runtime.Pool}, vector operations execute
    4-lane f32 arithmetic via {!Runtime.Simd}, and every matrix
    allocation is charged to the run's own reference-counting ledger
    ({!Runtime.Rc}), so tests can assert the no-leak invariant of the
    generated code. *)

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
   the frame of the call or iteration that declared it, in the array its
   static type picks: an int, or a bool as 0 or 1, in [ints], a float in
   [floats], anything else in [slots]; so a scalar local is never boxed.
   An iteration reaches the variables around its loop through [up], so
   pool domains share those (as the emitted OpenMP C does) but never each
   other's body locals. *)
type frame = {
  slots : value array;
  ints : int array;
  floats : float array;
  up : frame;  (** the frame around a [ParFor] iteration's loop *)
  mutable spawned : spawned list;
      (** Cilk children of this call, newest first; only used on a call's
          frame (each call has its own, so recursive spawns in different
          domains never share a list) *)
}

and spawned = {
  s_dom : value Domain.t;
  s_store : value -> unit;  (** lands the child's result at the [sync] *)
}

(* [up] of a call's frame: a function sees no enclosing variables. *)
let rec no_frame =
  { slots = [||]; ints = [||]; floats = [||]; up = no_frame; spawned = [] }

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
   within the call (0 = the call's own frame) and how many entries of each
   array it needs so far. *)
type cframe = {
  level : int;
  mutable n_slots : int;
  mutable n_ints : int;
  mutable n_floats : int;
}

(* A variable: the level of its frame, its static type, and its index in
   the array of that frame its type picks. *)
type var = { v_level : int; v_ty : ctype; v_idx : int }

(* A scope: the names visible at the statement being compiled.  A child
   scope starts as a copy of its parent's map, so leaving it restores the
   parent's bindings. *)
type scope = { frame : cframe; mutable names : var Names.t }

let cframe level = { level; n_slots = 0; n_ints = 0; n_floats = 0 }
let child sc = { sc with names = sc.names }

let iteration_scope sc =
  { frame = cframe (sc.frame.level + 1); names = sc.names }

(* A fresh entry for every [Decl]: a second [Decl] of a name rebinds it for
   later statements without touching the first one's entry. *)
let declare sc ty name =
  let f = sc.frame in
  let idx =
    match ty with
    | CInt | CBool ->
        f.n_ints <- f.n_ints + 1;
        f.n_ints - 1
    | CFloat ->
        f.n_floats <- f.n_floats + 1;
        f.n_floats - 1
    | _ ->
        f.n_slots <- f.n_slots + 1;
        f.n_slots - 1
  in
  let v = { v_level = f.level; v_ty = ty; v_idx = idx } in
  sc.names <- Names.add name v sc.names;
  v

(* A runtime frame of the shape [f] has once its code is compiled.  An
   empty array is the shared atom, made without a call into the
   runtime: most frames use one or two of the three. *)
let new_frame f up =
  let make n x = if n = 0 then [||] else Array.make n x in
  {
    slots = make f.n_slots VUnit;
    ints = make f.n_ints 0;
    floats = make f.n_floats 0.;
    up;
    spawned = [];
  }

(* [bind fr v x] — store the value [x] into [v], a variable of [fr],
   unboxing a scalar: a parameter, a spawn's target, a rewritten tuple. *)
let bind fr v x =
  match v.v_ty with
  | CInt -> fr.ints.(v.v_idx) <- S.to_int (scal x)
  | CBool -> fr.ints.(v.v_idx) <- Bool.to_int (S.to_bool (scal x))
  | CFloat -> fr.floats.(v.v_idx) <- S.to_float (scal x)
  | _ -> fr.slots.(v.v_idx) <- x

(* --- compiled functions ------------------------------------------------------ *)

(* A function after compilation.  Calls are bound to this record before
   every body is compiled (recursion), so the body is filled in
   afterwards, and [shape] grows until it is. *)
type fn = {
  name : string;
  params : var array;  (** in the call's own frame *)
  ret : ctype;
  shape : cframe;  (** of a call's frame *)
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
      match e.s_store (Domain.join e.s_dom) with
      | () -> ()
      | exception exn -> if !failure = None then failure := Some exn)
    entries;
  match !failure with Some exn -> raise exn | None -> ()

let call fn (argv : value array) : value =
  Support.Telemetry.bump c_calls;
  let n = Array.length argv and arity = Array.length fn.params in
  if n <> arity then err "%s expects %d arguments, got %d" fn.name arity n;
  let fr = new_frame fn.shape no_frame in
  for i = 0 to n - 1 do
    bind fr fn.params.(i) argv.(i)
  done;
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

(* A flat access's offset check, against the count the matrix stores. *)
let in_range (m : Nd.t) o = if o < 0 || o >= m.size then flat_error m o

let in_bounds m ~dim ~span i =
  let extent = Nd.dim_size m dim in
  if i < 0 || i >= extent then
    raise (Runtime_error (bound_message ~index:i ~dim ~extent, span))

let const v _ = v
let return_unit = Return_exc VUnit

(* --- code by static type ----------------------------------------------------- *)

(* Every expression compiles at its static type, which the declared types
   of variables and parameters, matrix element types, return types and
   tuple components give (lowering makes every conversion explicit).  A
   scalar compiles to a closure returning the OCaml [int], [float] or
   [bool] itself, chosen by operator and operand types, so no operator
   looks at a tag when it runs.  Anything else (a matrix, a vector, a
   tuple, void) returns its [value], with its type where it is known. *)
type code =
  | Ci of (frame -> int)
  | Cf of (frame -> float)
  | Cb of (frame -> bool)
  | Cv of ctype option * (frame -> value)

let type_of = function
  | Ci _ -> Some CInt
  | Cf _ -> Some CFloat
  | Cb _ -> Some CBool
  | Cv (t, _) -> t

let v_true = VScal (S.B true)
let v_false = VScal (S.B false)

(* A scalar is boxed as a [value] only where one is needed: an argument,
   a return value, a tuple part, a result. *)
let box = function
  | Ci f -> fun fr -> VScal (S.I (f fr))
  | Cf f -> fun fr -> VScal (S.F (f fr))
  | Cb f -> fun fr -> if f fr then v_true else v_false
  | Cv (_, f) -> f

(* A [value] of static type [ty], unboxed where it is a scalar: a call's
   result, a tuple's field. *)
let of_value ty f =
  match ty with
  | Some CInt -> Ci (fun fr -> S.to_int (scal (f fr)))
  | Some CFloat -> Cf (fun fr -> S.to_float (scal (f fr)))
  | Some CBool -> Cb (fun fr -> S.to_bool (scal (f fr)))
  | _ -> Cv (ty, f)

(* [c] as a [Scalar.t], only to report an operand that no C operator
   takes: a non-scalar fails as "expected scalar", and a scalar whose type
   cannot be derived (hand-built CIR) fails when it runs. *)
let scalar_of = function
  | Ci f -> fun fr -> S.I (f fr)
  | Cf f -> fun fr -> S.F (f fr)
  | Cb f -> fun fr -> S.B (f fr)
  | Cv (Some _, f) -> fun fr -> scal (f fr)
  | Cv (None, f) ->
      fun fr ->
        ignore (scal (f fr));
        err "expression of unknown type"

(* C's conversions of an operand: int to float, float to int by
   truncation, a number to a condition by comparing it with 0. *)
let as_int = function
  | Ci f -> f
  | Cf f -> fun fr -> int_of_float (f fr)
  | c ->
      let s = scalar_of c in
      fun fr -> S.to_int (s fr)

let as_float = function
  | Cf f -> f
  | Ci f -> fun fr -> float_of_int (f fr)
  | c ->
      let s = scalar_of c in
      fun fr -> S.to_float (s fr)

let as_bool = function
  | Cb f -> f
  | Ci f -> fun fr -> f fr <> 0
  | Cf f -> fun fr -> f fr <> 0.
  | c ->
      let s = scalar_of c in
      fun fr -> S.to_bool (s fr)

let ignored = function
  | Ci f -> fun fr -> ignore (f fr)
  | Cf f -> fun fr -> ignore (f fr)
  | Cb f -> fun fr -> ignore (f fr)
  | Cv (_, f) -> fun fr -> ignore (f fr)

(* An operator applied to operands C rejects (a boolean in arithmetic, a
   float under [%], a non-scalar): both run, the right one first, and
   [f] ([S.arith] or [S.cmp]) raises their report. *)
let rejected f a b =
  let a = scalar_of a and b = scalar_of b in
  Cv
    ( None,
      fun fr ->
        let y = b fr in
        VScal (f (a fr) y) )

(* Binary operators evaluate their right operand first.  Ints stay ints;
   an int meeting a float is promoted. *)
let arith (op : S.arith) a b =
  match (op, a, b) with
  | S.Add, Ci a, Ci b -> Ci (fun fr -> let y = b fr in a fr + y)
  | S.Sub, Ci a, Ci b -> Ci (fun fr -> let y = b fr in a fr - y)
  | S.Mul, Ci a, Ci b -> Ci (fun fr -> let y = b fr in a fr * y)
  | S.Div, Ci a, Ci b ->
      Ci
        (fun fr ->
          let y = b fr in
          let x = a fr in
          if y = 0 then S.err "integer division by zero" else x / y)
  | S.Mod, Ci a, Ci b ->
      Ci
        (fun fr ->
          let y = b fr in
          let x = a fr in
          if y = 0 then S.err "modulo by zero" else x mod y)
  | S.Add, ((Ci _ | Cf _) as a), ((Ci _ | Cf _) as b) ->
      let a = as_float a and b = as_float b in
      Cf (fun fr -> let y = b fr in a fr +. y)
  | S.Sub, ((Ci _ | Cf _) as a), ((Ci _ | Cf _) as b) ->
      let a = as_float a and b = as_float b in
      Cf (fun fr -> let y = b fr in a fr -. y)
  | S.Mul, ((Ci _ | Cf _) as a), ((Ci _ | Cf _) as b) ->
      let a = as_float a and b = as_float b in
      Cf (fun fr -> let y = b fr in a fr *. y)
  | S.Div, ((Ci _ | Cf _) as a), ((Ci _ | Cf _) as b) ->
      let a = as_float a and b = as_float b in
      Cf (fun fr -> let y = b fr in a fr /. y)
  | _ -> rejected (S.arith op) a b

(* Comparisons as C makes them: ints as ints, a float with a number under
   IEEE 754 (OCaml's float comparisons are C's, so a NaN is unordered),
   and booleans as 0 and 1. *)
let rec comparison (op : S.cmp) a b =
  match (a, b) with
  | Ci a, Ci b ->
      Cb
        (match op with
        | S.Lt -> fun fr -> let y = b fr in a fr < y
        | S.Le -> fun fr -> let y = b fr in a fr <= y
        | S.Gt -> fun fr -> let y = b fr in a fr > y
        | S.Ge -> fun fr -> let y = b fr in a fr >= y
        | S.Eq -> fun fr -> let y = b fr in a fr = y
        | S.Ne -> fun fr -> let y = b fr in a fr <> y)
  | (Ci _ | Cf _), (Ci _ | Cf _) ->
      let a = as_float a and b = as_float b in
      Cb
        (match op with
        | S.Lt -> fun fr -> let y = b fr in a fr < y
        | S.Le -> fun fr -> let y = b fr in a fr <= y
        | S.Gt -> fun fr -> let y = b fr in a fr > y
        | S.Ge -> fun fr -> let y = b fr in a fr >= y
        | S.Eq -> fun fr -> let y = b fr in a fr = y
        | S.Ne -> fun fr -> let y = b fr in a fr <> y)
  | Cb a, Cb b ->
      comparison op
        (Ci (fun fr -> Bool.to_int (a fr)))
        (Ci (fun fr -> Bool.to_int (b fr)))
  | _ -> rejected (S.cmp op) a b

(* --- variables --------------------------------------------------------------- *)

(* A variable read at the variable's type, from the frame [d] [up] links
   away. *)
let read_var sc name : code =
  match Names.find_opt name sc.names with
  | None -> Cv (None, fun _ -> err "unbound variable %s" name)
  | Some v -> (
      let i = v.v_idx in
      match (sc.frame.level - v.v_level, v.v_ty) with
      | 0, CInt -> Ci (fun fr -> fr.ints.(i))
      | 1, CInt -> Ci (fun fr -> fr.up.ints.(i))
      | d, CInt -> Ci (fun fr -> (frame_up fr d).ints.(i))
      | 0, CBool -> Cb (fun fr -> fr.ints.(i) <> 0)
      | 1, CBool -> Cb (fun fr -> fr.up.ints.(i) <> 0)
      | d, CBool -> Cb (fun fr -> (frame_up fr d).ints.(i) <> 0)
      | 0, CFloat -> Cf (fun fr -> fr.floats.(i))
      | 1, CFloat -> Cf (fun fr -> fr.up.floats.(i))
      | d, CFloat -> Cf (fun fr -> (frame_up fr d).floats.(i))
      | 0, t -> Cv (Some t, fun fr -> fr.slots.(i))
      | 1, t -> Cv (Some t, fun fr -> fr.up.slots.(i))
      | d, t -> Cv (Some t, fun fr -> (frame_up fr d).slots.(i)))

(* A store of [c] into the variable [v], converted to its type. *)
let write_var sc v c : frame -> unit =
  let i = v.v_idx in
  match (sc.frame.level - v.v_level, v.v_ty) with
  | 0, CInt ->
      let e = as_int c in
      fun fr -> fr.ints.(i) <- e fr
  | d, CInt ->
      let e = as_int c in
      fun fr -> (frame_up fr d).ints.(i) <- e fr
  | 0, CBool ->
      let e = as_bool c in
      fun fr -> fr.ints.(i) <- Bool.to_int (e fr)
  | d, CBool ->
      let e = as_bool c in
      fun fr -> (frame_up fr d).ints.(i) <- Bool.to_int (e fr)
  | 0, CFloat ->
      let e = as_float c in
      fun fr -> fr.floats.(i) <- e fr
  | d, CFloat ->
      let e = as_float c in
      fun fr -> (frame_up fr d).floats.(i) <- e fr
  | 0, _ ->
      let e = box c in
      fun fr -> fr.slots.(i) <- e fr
  | d, _ ->
      let e = box c in
      fun fr -> (frame_up fr d).slots.(i) <- e fr

(* A store of a [value] into [name] (a tuple rewrite, a spawn's target),
   resolved in the frame it is given. *)
let write_value sc name : frame -> value -> unit =
  match Names.find_opt name sc.names with
  | None -> fun _ -> err "unbound variable %s" name
  | Some v ->
      let d = sc.frame.level - v.v_level in
      fun fr x -> bind (frame_up fr d) v x

(* --- the compiler -------------------------------------------------------------- *)

(* Operands evaluate in a fixed order, which decides the side effects and
   the first error a program sees: a [Binop] or [Min] evaluates its right
   operand first, [MGetFlat] and [MSetFlat] the matrix (and a subscript's
   checks) before the offset and the stored value, [Checked] its checks
   in order before its value, argument and tuple lists left to right.
   Errors that the type checker rules out for source programs (an
   unbound name, an undefined function, a non-literal path, an
   expression whose type cannot be derived) compile to a closure that
   raises when it runs, never at compile time. *)

let rec code (cx : ctx) (sc : scope) (e : expr) : code =
  let cd = code cx sc in
  match e with
  | Int i -> Ci (fun _ -> i)
  | Float f -> Cf (fun _ -> f)
  | Bool b -> Cb (fun _ -> b)
  | Str _ ->
      Cv (None, fun _ -> err "string literal outside readMatrix/writeMatrix")
  | Var v -> read_var sc v
  | Binop (Arith op, a, b) -> arith op (cd a) (cd b)
  | Binop (Cmp op, a, b) -> comparison op (cd a) (cd b)
  | Binop (Logic S.And, a, b) ->
      (* C short-circuit semantics *)
      let a = cond cx sc a and b = cond cx sc b in
      Cb (fun fr -> a fr && b fr)
  | Binop (Logic S.Or, a, b) ->
      let a = cond cx sc a and b = cond cx sc b in
      Cb (fun fr -> a fr || b fr)
  | Unop (Neg, a) -> (
      match cd a with
      | Ci a -> Ci (fun fr -> -a fr)
      | Cf a -> Cf (fun fr -> -.a fr)
      | a ->
          let a = scalar_of a in
          Cv
            ( None,
              fun fr ->
                ignore (a fr);
                S.err "negation of boolean" ))
  | Unop (Not, a) ->
      let a = cond cx sc a in
      Cb (fun fr -> not (a fr))
  | Unop (IntOfFloat, a) -> Ci (int_ cx sc a)
  | Unop (FloatOfInt, a) -> Cf (float_ cx sc a)
  | Min (a, b) ->
      let a = int_ cx sc a and b = int_ cx sc b in
      Ci
        (fun fr ->
          let y = b fr in
          let x = a fr in
          if x <= y then x else y)
  | Call (name, args) -> (
      match List.assoc_opt name cx.fns with
      | None -> Cv (None, fun _ -> err "undefined function %s" name)
      | Some fn ->
          let args = Array.of_list (List.map (expr cx sc) args) in
          of_value (Some fn.ret) (fun fr ->
              call fn (Array.map (fun a -> a fr) args)))
  | TupleE es ->
      let cs = List.map cd es in
      let ty =
        match List.filter_map type_of cs with
        | ts when List.compare_lengths ts cs = 0 -> Some (CTuple ts)
        | _ -> None
      in
      let es = Array.of_list (List.map box cs) in
      Cv (ty, fun fr -> VTuple (Array.map (fun e -> e fr) es))
  | Field (a, i) -> (
      let a = cd a in
      let ty =
        match type_of a with Some (CTuple ts) -> List.nth_opt ts i | _ -> None
      in
      let a = box a in
      of_value ty @@ fun fr ->
      match a fr with
      | VTuple vs when i < Array.length vs -> vs.(i)
      | v -> err "field .f%d of non-tuple %a" i pp_value v)
  | MAlloc { elem; dims; zeroed = _ } ->
      (* OCaml arrays start initialised, so every payload starts zeroed *)
      let dims = Array.of_list (List.map (int_ cx sc) dims) in
      Cv
        ( Some (CMat (elem, Array.length dims)),
          fun fr ->
            let sh = Array.map (fun d -> d fr) dims in
            alloc_mat cx (Nd.create elem sh) )
  | MView { elem; m; offset; dims } ->
      (* a borrowed view: no allocation, so no ledger and no failpoint *)
      let m = expr cx sc m and offset = int_ cx sc offset in
      let dims = Array.of_list (List.map (int_ cx sc) dims) in
      Cv
        ( Some (CMat (elem, Array.length dims)),
          fun fr ->
            let base = mat (m fr) in
            let off = offset fr in
            let sh = Array.map (fun d -> d fr) dims in
            VMat (Runtime.Rc.borrow (Nd.view base ~off sh)) )
  | MRead (Str p) ->
      let path = data_path ~dir:(cx.dir ()) p in
      Cv (None, fun _ -> alloc_mat cx (Nd.read_file path))
  | MRead _ -> Cv (None, fun _ -> err "readMatrix requires a literal path")
  | MGetFlat (me, off) -> (
      let elem, take, off =
        match subscript cx sc me off with
        | Some s -> s
        | None ->
            let elem, me = matrix cx sc me in
            (elem, (fun fr -> mat (me fr)), off)
      in
      let off = int_ cx sc off in
      match elem with
      | Some Nd.EInt ->
          Ci
            (fun fr ->
              let m = take fr in
              let o = off fr in
              in_range m o;
              Nd.get_flat_int m o)
      | Some Nd.EFloat ->
          Cf
            (fun fr ->
              let m = take fr in
              let o = off fr in
              in_range m o;
              Nd.get_flat_float m o)
      | Some Nd.EBool ->
          Cb
            (fun fr ->
              let m = take fr in
              let o = off fr in
              in_range m o;
              Nd.get_flat_bool m o)
      | None ->
          Cv
            ( None,
              fun fr ->
                let m = take fr in
                let o = off fr in
                in_range m o;
                VScal (Nd.get_flat m o) ))
  | MDim (me, d) ->
      let me = expr cx sc me and d = int_ cx sc d in
      Ci
        (fun fr ->
          let m = mat (me fr) in
          Nd.dim_size m (d fr))
  | MSize me ->
      let me = expr cx sc me in
      Ci (fun fr -> Nd.size (mat (me fr)))
  | VecSplat a ->
      let a = float_ cx sc a in
      Cv
        ( Some CVec,
          fun fr ->
            VVec (Runtime.Simd.splat (a fr) ~width:Runtime.Simd.default_width)
        )
  | VecGather (me, base, stride) ->
      let me = expr cx sc me and base = int_ cx sc base in
      let stride = int_ cx sc stride in
      Cv
        ( Some CVec,
          fun fr ->
            let m = mat (me fr) in
            let b = base fr in
            let s = stride fr in
            VVec
              (Array.init Runtime.Simd.default_width (fun k ->
                   let o = b + (k * s) in
                   if o < 0 || o >= Nd.size m then
                     err "vector lane offset %d out of bounds" o
                   else Runtime.Simd.to_f32 (Nd.get_flat_float m o))) )
  | VecBin (op, a, b) ->
      let a = expr cx sc a and b = expr cx sc b in
      let f =
        match op with
        | S.Add -> Some Runtime.Simd.add
        | S.Sub -> Some Runtime.Simd.sub
        | S.Mul -> Some Runtime.Simd.mul
        | S.Div -> Some Runtime.Simd.div
        | S.Mod -> None
      in
      Cv
        ( Some CVec,
          fun fr ->
            let x = vecv (a fr) in
            let y = vecv (b fr) in
            match f with
            | Some f -> VVec (f x y)
            | None -> err "vector modulo unsupported" )
  | VecHsum a ->
      let a = expr cx sc a in
      Cf (fun fr -> Runtime.Simd.hsum (vecv (a fr)))
  | Checked (cs, e) -> (
      let cs = Array.of_list (List.map (check cx sc) cs) in
      let checks fr =
        for i = 0 to Array.length cs - 1 do
          cs.(i) fr
        done
      in
      match cd e with
      | Ci f -> Ci (fun fr -> checks fr; f fr)
      | Cf f -> Cf (fun fr -> checks fr; f fr)
      | Cb f -> Cb (fun fr -> checks fr; f fr)
      | Cv (t, f) -> Cv (t, fun fr -> checks fr; f fr))

(* [e] where the context takes a [value], an int, a float or a
   condition. *)
and expr cx sc e = box (code cx sc e)
and int_ cx sc e = as_int (code cx sc e)
and float_ cx sc e = as_float (code cx sc e)
and cond cx sc e = as_bool (code cx sc e)

(* A matrix operand: its element type, where its type is known, and its
   value. *)
and matrix cx sc me =
  let c = code cx sc me in
  ((match type_of c with Some (CMat (e, _)) -> Some e | _ -> None), box c)

(* A subscript's buffer access [me[off]], when every check [off]
   carries bounds [me] itself: [me]'s element type, a closure taking the
   matrix once and running the checks against it, and the unchecked
   offset. *)
and subscript cx sc me off =
  match off with
  | Checked ((Bound { span; _ } :: _ as cs), off)
    when List.for_all (function Bound b -> b.m = me | _ -> false) cs ->
      let elem, me = matrix cx sc me in
      let cs =
        Array.of_list
          (List.filter_map
             (function
               | Bound { dim; index; span; _ } ->
                   let index = int_ cx sc index in
                   Some (fun fr m -> in_bounds m ~dim ~span (index fr))
               | Same _ | Null _ | Dim _ -> None)
             cs)
      in
      Some
        ( elem,
          (fun fr ->
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
      let m = expr cx sc m and index = int_ cx sc index in
      fun fr -> (
        match m fr with
        | VMat rc -> in_bounds (Runtime.Rc.get rc) ~dim ~span (index fr)
        | VNull -> raise (Runtime_error (null_message, span))
        | v -> err "expected matrix, got %a" pp_value v)
  | Same { what; a; b; span } ->
      let a = int_ cx sc a and b = int_ cx sc b in
      fun fr ->
        let x = a fr and y = b fr in
        if x <> y then raise (Runtime_error (same_message ~what x y, span))
  | Null { m; span } -> (
      let m = expr cx sc m in
      fun fr ->
        match m fr with
        | VNull -> raise (Runtime_error (null_message, span))
        | _ -> ())
  | Dim { m; index; span; _ } -> (
      let m = expr cx sc m and index = int_ cx sc index in
      fun fr ->
        match m fr with
        | VMat rc -> (
            try ignore (Nd.dim_size (Runtime.Rc.get rc) (index fr))
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
  let ex = expr cx sc in
  match s with
  | Comment _ -> fun _ -> ()
  | Decl (t, name, init) ->
      (* the initialiser sees the outer binding of [name] *)
      let init =
        match (init, t) with
        | Some e, _ -> code cx sc e
        | None, CInt -> Ci (fun _ -> 0)
        | None, CFloat -> Cf (fun _ -> 0.)
        | None, CBool -> Cb (fun _ -> false)
        | None, CVec -> Cv (Some CVec, fun _ -> default_of_type CVec)
        | None, t -> Cv (Some t, const (default_of_type t))
      in
      write_var sc (declare sc t name) init
  | Assign (LVar name, e) -> (
      let c = code cx sc e in
      match Names.find_opt name sc.names with
      | Some v -> write_var sc v c
      | None ->
          let e = box c in
          fun fr ->
            ignore (e fr);
            err "unbound variable %s" name)
  | Assign (LField (LVar name, i), e) -> (
      let e = ex e in
      let get = ex (Var name) and set = write_value sc name in
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
      let ve = code cx sc ve in
      let take, off =
        match subscript cx sc me off with
        | Some (_, take, off) -> (take, off)
        | None ->
            let _, me = matrix cx sc me in
            ((fun fr -> mat (me fr)), off)
      in
      let off = int_ cx sc off in
      match ve with
      | Ci v ->
          fun fr ->
            let m = take fr in
            let o = off fr in
            in_range m o;
            Support.Telemetry.bump c_stores;
            Nd.set_flat_int m o (v fr)
      | Cf v ->
          fun fr ->
            let m = take fr in
            let o = off fr in
            in_range m o;
            Support.Telemetry.bump c_stores;
            Nd.set_flat_float m o (v fr)
      | Cb v ->
          fun fr ->
            let m = take fr in
            let o = off fr in
            in_range m o;
            Support.Telemetry.bump c_stores;
            Nd.set_flat_bool m o (v fr)
      | Cv _ ->
          let v = scalar_of ve in
          fun fr ->
            let m = take fr in
            let o = off fr in
            in_range m o;
            Support.Telemetry.bump c_stores;
            Nd.set_flat m o (v fr))
  | VecScatter (me, base, stride, ve) ->
      let me = ex me and base = int_ cx sc base and stride = int_ cx sc stride in
      let ve = ex ve in
      fun fr ->
        let m = mat (me fr) in
        let b = base fr in
        let st = stride fr in
        let v = vecv (ve fr) in
        Array.iteri
          (fun k x ->
            let o = b + (k * st) in
            if o < 0 || o >= Nd.size m then
              err "scatter offset %d out of bounds" o
            else Nd.set_flat_float m o (Runtime.Simd.to_f32 x))
          v
  | If (c, a, b) ->
      let c = cond cx sc c and a = block cx sc a and b = block cx sc b in
      fun fr -> if c fr then a fr else b fr
  | While (c, b) ->
      let c = cond cx sc c and b = block cx sc b in
      fun fr ->
        (try
           while c fr do
             Runtime.Limits.tick ();
             try b fr with Continue_exc -> ()
           done
         with Break_exc -> ())
  | For l -> for_loop cx sc l
  | ParFor l -> parfor_loop cx sc l
  | ExprS e -> ignored (code cx sc e)
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
          (* the spawn binds its target in the frame active now; the
             call's frame, [level] links up, owns the spawn list *)
          let target : frame -> value -> unit =
            match lv with
            | None -> fun _ _ -> ()
            | Some (LVar v) -> write_value sc v
            | Some (LField _) ->
                fun _ -> err "spawn into a tuple field is unsupported"
          in
          let level = sc.frame.level in
          fun fr ->
            let argv = Array.map (fun a -> a fr) args in
            let s_store = target fr in
            let s_dom = Domain.spawn (fun () -> call fn argv) in
            let root = frame_up fr level in
            root.spawned <- { s_dom; s_store } :: root.spawned)
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
   locals get entries of it, rewritten on every iteration. *)
and for_loop cx sc l =
  let bound = int_ cx sc l.bound in
  let isc = child sc in
  let index = (declare isc CInt l.index).v_idx in
  let body = block cx isc l.body in
  let iterate fr n =
    try
      for i = 0 to n - 1 do
        Runtime.Limits.tick ();
        fr.ints.(index) <- i;
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
    let n = bound fr in
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

(* A parallel loop gives every iteration its own frame: its first int
   holds the index, the body's locals follow, and [up] reaches the
   variables around the loop. *)
and parfor_loop cx sc l =
  let bound = int_ cx sc l.bound in
  let isc = iteration_scope sc in
  let index = (declare isc CInt l.index).v_idx in
  let body = block cx isc l.body in
  let iteration fr i =
    Runtime.Limits.tick ();
    let it = new_frame isc.frame fr in
    it.ints.(index) <- i;
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
    let n = bound fr in
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
             (* a function body's top level shares the parameters' scope *)
             let sc = { frame = cframe 0; names = Names.empty } in
             let params =
               Array.of_list (List.map (fun (t, p) -> declare sc t p) f.f_params)
             in
             let fn =
               {
                 name = f.f_name;
                 params;
                 ret = f.f_ret;
                 shape = sc.frame;
                 body = (fun _ -> ());
               }
             in
             (f.f_name, (f, sc, fn)) :: acc)
         [] prog.funcs)
  in
  let cx =
    { pool; dir; fns = List.map (fun (n, (_, _, fn)) -> (n, fn)) defs; ledger }
  in
  List.iter (fun (_, (f, sc, fn)) -> fn.body <- stmts cx sc f.f_body) defs;
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
