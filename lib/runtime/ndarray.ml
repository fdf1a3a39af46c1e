(** Dense row-major matrices of float/int/bool — the runtime representation
    the matrix extension's generated C code operates on (§III-A), including
    every indexing mode of §III-A3:

    - standard indexing (extracts a single element),
    - range indexing [lo:hi] (inclusive, MATLAB-style, with [end]),
    - whole-dimension indexing [:],
    - logical (boolean-mask) indexing,
    - integer-vector gather indexing (the [ts[beginning::i]] form of Fig 8).

    All modes combine freely across dimensions and work on both sides of an
    assignment. *)

type elem = EFloat | EInt | EBool

let elem_name = function EFloat -> "float" | EInt -> "int" | EBool -> "bool"

type buf = F of float array | I of int array | B of bool array
type t = { shape : Shape.t; buf : buf }

exception Type_error of string

exception Io_error of string
(** Structured matrix-file failure ([readMatrix] on a missing, truncated
    or garbage file): the message always names the file, the byte offset
    where reading failed, and what was expected there. *)

let terr fmt = Format.kasprintf (fun m -> raise (Type_error m)) fmt
let io_err fmt = Format.kasprintf (fun m -> raise (Io_error m)) fmt

(* Fault-injection sites: every matrix allocation, and the entry of the
   readMatrix builtin. *)
let fp_alloc = Support.Failpoint.register "ndarray.alloc"
let fp_read = Support.Failpoint.register "io.read_matrix"

(* Kernel-invocation telemetry: one gated atomic bump per whole-matrix
   kernel call (not per element), plus per-kernel-class nanoseconds. *)
let c_elementwise = Support.Telemetry.counter "kernel.elementwise"
let c_elementwise_ns = Support.Telemetry.counter "kernel.elementwise_ns"
let c_matmul = Support.Telemetry.counter "kernel.matmul"
let c_matmul_blocked = Support.Telemetry.counter "kernel.matmul_blocked"
let c_matmul_ns = Support.Telemetry.counter "kernel.matmul_ns"
let c_reduce = Support.Telemetry.counter "kernel.reduce"
let c_reduce_ns = Support.Telemetry.counter "kernel.reduce_ns"

(* [timed c f] — run [f], charging its wall-clock to counter [c] when
   telemetry is on (one gated atomic load on the disabled path). *)
let timed c f =
  if Support.Telemetry.on () then begin
    let t0 = Support.Telemetry.now_ns () in
    let r = f () in
    Support.Telemetry.add c (Support.Telemetry.now_ns () - t0);
    r
  end
  else f ()

(* --- kernel tuning (threads flag + MMC_BLOCK / MMC_GRAIN, §III-C) -------- *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt s with Some v when v > 0 -> v | _ -> default)
  | None -> default

(* Cache-block edge for the tiled matmul: a [block x block] float tile of
   the right operand is what each inner kernel pass re-reads, so the
   default keeps two tiles comfortably inside a 32 KiB L1d. *)
let block_size = ref (env_int "MMC_BLOCK" 48)

(* Minimum elements before an elementwise/reduction kernel wakes the
   pool; below it the dispatch latency outweighs the parallel work. *)
let par_grain = ref (env_int "MMC_GRAIN" 16_384)

(* Minimum multiply-adds (m*k*n) before matmul row-blocks are dispatched
   to the pool and before blocking beats the plain triple loop. *)
let matmul_par_threshold = 1 lsl 18
let matmul_block_threshold = 1 lsl 12

let set_block_size b =
  if b < 1 then invalid_arg "Ndarray.set_block_size";
  block_size := b

let set_par_grain g =
  if g < 1 then invalid_arg "Ndarray.set_par_grain";
  par_grain := g

let get_block_size () = !block_size
let get_par_grain () = !par_grain

(* [par_fill ?pool n f] — call [f i] for all [0 <= i < n], on the pool in
   contiguous chunks when the matrix is big enough to pay for dispatch.
   Each index is written by exactly one thread (disjoint chunks), so no
   synchronisation is needed beyond the stop barrier. *)
let par_fill ?pool n f =
  match pool with
  | Some p when n >= !par_grain ->
      Pool.parallel_for_ranges ~grain:(!par_grain / 4) p 0 n (fun lo hi ->
          for i = lo to hi - 1 do
            f i
          done)
  | _ ->
      for i = 0 to n - 1 do
        f i
      done

let shape m = m.shape
let rank m = Shape.rank m.shape
let size m = Shape.size m.shape

let elem m = match m.buf with F _ -> EFloat | I _ -> EInt | B _ -> EBool

(** [dim_size m d] — the [dimSize(m, d)] builtin. *)
let dim_size m d =
  if d < 0 || d >= rank m then
    Shape.err "dimSize: dimension %d out of range for %s" d
      (Shape.to_string m.shape)
  else m.shape.(d)

(** Observation hook fired on every {!create} with the payload size in
    bytes (4 per element, matching the RC registry's accounting).  The
    profiler installs itself here to attribute allocation traffic to the
    source span being executed; [None] costs one load per allocation. *)
let alloc_hook : (int -> unit) option ref = ref None

(** [create e shape] — zero/false-initialised matrix: the [init] builtin.
    The [ndarray.alloc] failpoint fires {e before} the buffer exists or
    the allocation hook runs, modelling an allocation failure that leaves
    no trace behind. *)
let create e sh =
  Support.Failpoint.hit fp_alloc;
  let n = Shape.size sh in
  let buf =
    match e with
    | EFloat -> F (Array.make n 0.)
    | EInt -> I (Array.make n 0)
    | EBool -> B (Array.make n false)
  in
  (match !alloc_hook with Some f -> f (n * 4) | None -> ());
  { shape = Array.copy sh; buf }

let init_float sh f =
  let n = Shape.size sh in
  let a = Array.init n (fun off -> f (Shape.unoffset sh off)) in
  { shape = Array.copy sh; buf = F a }

let init_int sh f =
  let n = Shape.size sh in
  let a = Array.init n (fun off -> f (Shape.unoffset sh off)) in
  { shape = Array.copy sh; buf = I a }

let of_float_array sh a =
  if Array.length a <> Shape.size sh then
    Shape.err "of_float_array: %d elements for shape %s" (Array.length a)
      (Shape.to_string sh);
  { shape = Array.copy sh; buf = F (Array.copy a) }

let of_int_array sh a =
  if Array.length a <> Shape.size sh then
    Shape.err "of_int_array: %d elements for shape %s" (Array.length a)
      (Shape.to_string sh);
  { shape = Array.copy sh; buf = I (Array.copy a) }

let of_bool_array sh a =
  if Array.length a <> Shape.size sh then
    Shape.err "of_bool_array: %d elements for shape %s" (Array.length a)
      (Shape.to_string sh);
  { shape = Array.copy sh; buf = B (Array.copy a) }

(** 1-D float vector from a list. *)
let vec_f xs = of_float_array [| List.length xs |] (Array.of_list xs)

let vec_i xs = of_int_array [| List.length xs |] (Array.of_list xs)

(** [range lo hi] — the [lo::hi] range-construction expression of Fig 8:
    a 1-D int vector [lo, lo+1, …, hi] (inclusive; empty when [hi < lo]). *)
let range lo hi =
  let n = max 0 (hi - lo + 1) in
  { shape = [| n |]; buf = I (Array.init n (fun i -> lo + i)) }

let copy m =
  {
    shape = Array.copy m.shape;
    buf =
      (match m.buf with
      | F a -> F (Array.copy a)
      | I a -> I (Array.copy a)
      | B a -> B (Array.copy a));
  }

(* --- flat accessors ------------------------------------------------------ *)

let get_flat m off : Scalar.t =
  match m.buf with
  | F a -> Scalar.F a.(off)
  | I a -> Scalar.I a.(off)
  | B a -> Scalar.B a.(off)

let set_flat m off (v : Scalar.t) =
  match (m.buf, v) with
  | F a, Scalar.F x -> a.(off) <- x
  | F a, Scalar.I x -> a.(off) <- float_of_int x
  | I a, Scalar.I x -> a.(off) <- x
  | B a, Scalar.B x -> a.(off) <- x
  | _ ->
      terr "cannot store %s into %s matrix" (Scalar.to_string v)
        (elem_name (elem m))

let get m idx = get_flat m (Shape.offset m.shape idx)
let set m idx v = set_flat m (Shape.offset m.shape idx) v

(* --- elementwise operations (§III-A2) ------------------------------------ *)

let same_elem a b =
  if elem a <> elem b then
    terr "element type mismatch: %s vs %s" (elem_name (elem a))
      (elem_name (elem b))

(* Resolved float/int binary ops so the hot loops never allocate Scalar
   boxes; division/modulo keep Scalar's exact error messages. *)
let float_op : Scalar.arith -> float -> float -> float = function
  | Scalar.Add -> ( +. )
  | Scalar.Sub -> ( -. )
  | Scalar.Mul -> ( *. )
  | Scalar.Div -> ( /. )
  | Scalar.Mod -> fun _ _ -> Scalar.err "%% requires integer operands"

let int_op : Scalar.arith -> int -> int -> int = function
  | Scalar.Add -> ( + )
  | Scalar.Sub -> ( - )
  | Scalar.Mul -> ( * )
  | Scalar.Div ->
      fun x y -> if y = 0 then Scalar.err "integer division by zero" else x / y
  | Scalar.Mod -> fun x y -> if y = 0 then Scalar.err "modulo by zero" else x mod y

(** Elementwise arithmetic; the paper's matrix operators are all
    elementwise except linear-algebra [*] (see {!matmul}). Checks equal
    type and rank/shape, as the extended type system does.  With [?pool],
    matrices of at least the grain size are filled in parallel chunks
    (elementwise maps are order-independent, so parallel results are
    bit-for-bit identical to sequential ones). *)
let arith ?pool op a b =
  Support.Telemetry.bump c_elementwise;
  same_elem a b;
  let sh = Shape.broadcast_eq a.shape b.shape in
  timed c_elementwise_ns @@ fun () ->
  match (a.buf, b.buf) with
  | F x, F y ->
      let f = float_op op in
      let n = Array.length x in
      let r = Array.make n 0. in
      par_fill ?pool n (fun i ->
          Array.unsafe_set r i
            (f (Array.unsafe_get x i) (Array.unsafe_get y i)));
      { shape = Array.copy sh; buf = F r }
  | I x, I y ->
      let f = int_op op in
      let n = Array.length x in
      let r = Array.make n 0 in
      par_fill ?pool n (fun i ->
          Array.unsafe_set r i
            (f (Array.unsafe_get x i) (Array.unsafe_get y i)));
      { shape = Array.copy sh; buf = I r }
  | _ -> terr "arithmetic on boolean matrices"

(** Matrix–scalar arithmetic, in either argument order (§III-A2). *)
let arith_scalar ?pool op (m : t) (s : Scalar.t) ~scalar_left : t =
  Support.Telemetry.bump c_elementwise;
  timed c_elementwise_ns @@ fun () ->
  (* Generic per-element path: exact [Scalar.arith] semantics (and error
     messages) for the cold combinations, e.g. a boolean scalar. *)
  let app a b =
    if scalar_left then Scalar.arith op b a else Scalar.arith op a b
  in
  match (m.buf, s) with
  | F x, (Scalar.F _ | Scalar.I _) ->
      let f = float_op op and sf = Scalar.to_float s in
      let n = Array.length x in
      let r = Array.make n 0. in
      par_fill ?pool n (fun i ->
          let v = Array.unsafe_get x i in
          Array.unsafe_set r i (if scalar_left then f sf v else f v sf));
      { shape = Array.copy m.shape; buf = F r }
  | I x, Scalar.F _ ->
      let f = float_op op and sf = Scalar.to_float s in
      let n = Array.length x in
      let r = Array.make n 0. in
      par_fill ?pool n (fun i ->
          let v = float_of_int (Array.unsafe_get x i) in
          Array.unsafe_set r i (if scalar_left then f sf v else f v sf));
      { shape = Array.copy m.shape; buf = F r }
  | I x, Scalar.I si ->
      let f = int_op op in
      let n = Array.length x in
      let r = Array.make n 0 in
      par_fill ?pool n (fun i ->
          let v = Array.unsafe_get x i in
          Array.unsafe_set r i (if scalar_left then f si v else f v si));
      { shape = Array.copy m.shape; buf = I r }
  | F x, _ ->
      {
        shape = Array.copy m.shape;
        buf = F (Array.map (fun v -> Scalar.to_float (app (Scalar.F v) s)) x);
      }
  | I x, _ ->
      {
        shape = Array.copy m.shape;
        buf = I (Array.map (fun v -> Scalar.to_int (app (Scalar.I v) s)) x);
      }
  | B _, _ -> terr "arithmetic on boolean matrix"

(* Comparison through the same float ordering [Scalar.cmp] uses, so the
   fast paths below are bit-for-bit identical to the generic one. *)
let cmp_bool : Scalar.cmp -> int -> bool = fun op c ->
  match op with
  | Scalar.Lt -> c < 0
  | Scalar.Le -> c <= 0
  | Scalar.Gt -> c > 0
  | Scalar.Ge -> c >= 0
  | Scalar.Eq -> c = 0
  | Scalar.Ne -> c <> 0

(** Elementwise comparison producing a boolean matrix (drives logical
    indexing, e.g. [ssh < i] in Fig 4). *)
let cmp ?pool op a b =
  Support.Telemetry.bump c_elementwise;
  let sh = Shape.broadcast_eq a.shape b.shape in
  let n = Shape.size sh in
  timed c_elementwise_ns @@ fun () ->
  match (a.buf, b.buf) with
  | F x, F y ->
      let r = Array.make n false in
      par_fill ?pool n (fun i ->
          Array.unsafe_set r i
            (cmp_bool op
               (compare (Array.unsafe_get x i) (Array.unsafe_get y i))));
      { shape = Array.copy sh; buf = B r }
  | I x, I y ->
      let r = Array.make n false in
      par_fill ?pool n (fun i ->
          Array.unsafe_set r i
            (cmp_bool op
               (compare
                  (float_of_int (Array.unsafe_get x i))
                  (float_of_int (Array.unsafe_get y i)))));
      { shape = Array.copy sh; buf = B r }
  | _ ->
      let r =
        Array.init n (fun i ->
            Scalar.to_bool (Scalar.cmp op (get_flat a i) (get_flat b i)))
      in
      { shape = Array.copy sh; buf = B r }

let cmp_scalar ?pool op m s ~scalar_left =
  let n = size m in
  timed c_elementwise_ns @@ fun () ->
  match (m.buf, s) with
  | F x, (Scalar.F _ | Scalar.I _) ->
      let sf = Scalar.to_float s in
      let r = Array.make n false in
      par_fill ?pool n (fun i ->
          let v = Array.unsafe_get x i in
          let c = if scalar_left then compare sf v else compare v sf in
          Array.unsafe_set r i (cmp_bool op c));
      { shape = Array.copy m.shape; buf = B r }
  | I x, (Scalar.F _ | Scalar.I _) ->
      let sf = Scalar.to_float s in
      let r = Array.make n false in
      par_fill ?pool n (fun i ->
          let v = float_of_int (Array.unsafe_get x i) in
          let c = if scalar_left then compare sf v else compare v sf in
          Array.unsafe_set r i (cmp_bool op c));
      { shape = Array.copy m.shape; buf = B r }
  | _ ->
      let r =
        Array.init n (fun i ->
            let x = get_flat m i in
            Scalar.to_bool
              (if scalar_left then Scalar.cmp op s x else Scalar.cmp op x s))
      in
      { shape = Array.copy m.shape; buf = B r }

let logic ?pool op a b =
  let sh = Shape.broadcast_eq a.shape b.shape in
  match (a.buf, b.buf) with
  | B x, B y ->
      let f = match op with
        | Scalar.And -> ( && )
        | Scalar.Or -> ( || )
      in
      let n = Array.length x in
      let r = Array.make n false in
      par_fill ?pool n (fun i ->
          Array.unsafe_set r i (f (Array.unsafe_get x i) (Array.unsafe_get y i)));
      { shape = Array.copy sh; buf = B r }
  | _ -> terr "logical operator on non-boolean matrices"

let not_ ?pool m =
  match m.buf with
  | B x ->
      let n = Array.length x in
      let r = Array.make n false in
      par_fill ?pool n (fun i ->
          Array.unsafe_set r i (not (Array.unsafe_get x i)));
      { shape = Array.copy m.shape; buf = B r }
  | _ -> terr "! on non-boolean matrix"

let neg ?pool m =
  match m.buf with
  | F x ->
      let n = Array.length x in
      let r = Array.make n 0. in
      par_fill ?pool n (fun i ->
          Array.unsafe_set r i (-.Array.unsafe_get x i));
      { shape = Array.copy m.shape; buf = F r }
  | I x ->
      let n = Array.length x in
      let r = Array.make n 0 in
      par_fill ?pool n (fun i -> Array.unsafe_set r i (-Array.unsafe_get x i));
      { shape = Array.copy m.shape; buf = I r }
  | B _ -> terr "negation of boolean matrix"

(* Shared validation for all matmul kernels: rank 2, matching element
   types, agreeing inner dimensions.  Returns (m, k, n). *)
let matmul_dims a b =
  same_elem a b;
  if rank a <> 2 || rank b <> 2 then
    Shape.err "matrix multiplication requires rank 2, got %s and %s"
      (Shape.to_string a.shape) (Shape.to_string b.shape);
  let m = a.shape.(0) and k = a.shape.(1) in
  let k' = b.shape.(0) and n = b.shape.(1) in
  if k <> k' then
    Shape.err "matrix multiplication inner dimensions: %s vs %s"
      (Shape.to_string a.shape) (Shape.to_string b.shape);
  (m, k, n)

(** The plain ikj triple loop — the oracle the blocked kernel is
    property-tested against, and the sequential baseline the kernel bench
    measures speedup over. *)
let matmul_naive a b =
  let m, k, n = matmul_dims a b in
  match (a.buf, b.buf) with
  | F x, F y ->
      let r = Array.make (m * n) 0. in
      for i = 0 to m - 1 do
        for l = 0 to k - 1 do
          let xv = x.((i * k) + l) in
          for j = 0 to n - 1 do
            r.((i * n) + j) <- r.((i * n) + j) +. (xv *. y.((l * n) + j))
          done
        done
      done;
      { shape = [| m; n |]; buf = F r }
  | I x, I y ->
      let r = Array.make (m * n) 0 in
      for i = 0 to m - 1 do
        for l = 0 to k - 1 do
          let xv = x.((i * k) + l) in
          for j = 0 to n - 1 do
            r.((i * n) + j) <- r.((i * n) + j) + (xv * y.((l * n) + j))
          done
        done
      done;
      { shape = [| m; n |]; buf = I r }
  | _ -> terr "matrix multiplication on boolean matrices"

(* Cache-blocked float kernel over the row range [row_lo, row_hi).
   Tiles the l (inner) and j (column) loops by [bs] so each pass re-reads
   one [bs x bs] tile of [y] from L1; within a tile, each row accumulates
   4 columns at a time in registers.  Writes to [r] rows in the range
   only, so disjoint row ranges can run on different threads. *)
let blocked_rows_f x y r k n bs row_lo row_hi =
  let lb = ref 0 in
  while !lb < k do
    let l_hi = min k (!lb + bs) in
    let jb = ref 0 in
    while !jb < n do
      let j_hi = min n (!jb + bs) in
      let quads = !jb + ((j_hi - !jb) / 4 * 4) in
      for i = row_lo to row_hi - 1 do
        let xrow = i * k and rrow = i * n in
        let j = ref !jb in
        while !j < quads do
          let j0 = !j in
          let acc0 = ref 0. and acc1 = ref 0. and acc2 = ref 0. in
          let acc3 = ref 0. in
          for l = !lb to l_hi - 1 do
            let xv = Array.unsafe_get x (xrow + l) in
            let yrow = (l * n) + j0 in
            acc0 := !acc0 +. (xv *. Array.unsafe_get y yrow);
            acc1 := !acc1 +. (xv *. Array.unsafe_get y (yrow + 1));
            acc2 := !acc2 +. (xv *. Array.unsafe_get y (yrow + 2));
            acc3 := !acc3 +. (xv *. Array.unsafe_get y (yrow + 3))
          done;
          Array.unsafe_set r (rrow + j0)
            (Array.unsafe_get r (rrow + j0) +. !acc0);
          Array.unsafe_set r (rrow + j0 + 1)
            (Array.unsafe_get r (rrow + j0 + 1) +. !acc1);
          Array.unsafe_set r (rrow + j0 + 2)
            (Array.unsafe_get r (rrow + j0 + 2) +. !acc2);
          Array.unsafe_set r (rrow + j0 + 3)
            (Array.unsafe_get r (rrow + j0 + 3) +. !acc3);
          j := j0 + 4
        done;
        for j = quads to j_hi - 1 do
          let acc = ref 0. in
          for l = !lb to l_hi - 1 do
            acc :=
              !acc
              +. (Array.unsafe_get x (xrow + l)
                  *. Array.unsafe_get y ((l * n) + j))
          done;
          Array.unsafe_set r (rrow + j) (Array.unsafe_get r (rrow + j) +. !acc)
        done
      done;
      jb := j_hi
    done;
    lb := l_hi
  done

(* Int counterpart of {!blocked_rows_f}; int [+] is associative, so the
   blocked accumulation order is observationally identical to naive. *)
let blocked_rows_i x y r k n bs row_lo row_hi =
  let lb = ref 0 in
  while !lb < k do
    let l_hi = min k (!lb + bs) in
    let jb = ref 0 in
    while !jb < n do
      let j_hi = min n (!jb + bs) in
      let quads = !jb + ((j_hi - !jb) / 4 * 4) in
      for i = row_lo to row_hi - 1 do
        let xrow = i * k and rrow = i * n in
        let j = ref !jb in
        while !j < quads do
          let j0 = !j in
          let acc0 = ref 0 and acc1 = ref 0 and acc2 = ref 0 in
          let acc3 = ref 0 in
          for l = !lb to l_hi - 1 do
            let xv = Array.unsafe_get x (xrow + l) in
            let yrow = (l * n) + j0 in
            acc0 := !acc0 + (xv * Array.unsafe_get y yrow);
            acc1 := !acc1 + (xv * Array.unsafe_get y (yrow + 1));
            acc2 := !acc2 + (xv * Array.unsafe_get y (yrow + 2));
            acc3 := !acc3 + (xv * Array.unsafe_get y (yrow + 3))
          done;
          Array.unsafe_set r (rrow + j0)
            (Array.unsafe_get r (rrow + j0) + !acc0);
          Array.unsafe_set r (rrow + j0 + 1)
            (Array.unsafe_get r (rrow + j0 + 1) + !acc1);
          Array.unsafe_set r (rrow + j0 + 2)
            (Array.unsafe_get r (rrow + j0 + 2) + !acc2);
          Array.unsafe_set r (rrow + j0 + 3)
            (Array.unsafe_get r (rrow + j0 + 3) + !acc3);
          j := j0 + 4
        done;
        for j = quads to j_hi - 1 do
          let acc = ref 0 in
          for l = !lb to l_hi - 1 do
            acc :=
              !acc
              + (Array.unsafe_get x (xrow + l)
                 * Array.unsafe_get y ((l * n) + j))
          done;
          Array.unsafe_set r (rrow + j) (Array.unsafe_get r (rrow + j) + !acc)
        done
      done;
      jb := j_hi
    done;
    lb := l_hi
  done

(** [matmul_blocked ?pool ?block a b] — the tiled/register-blocked kernel,
    unconditionally (no size threshold; {!matmul} decides when to use it).
    With [?pool], row blocks are dispatched as pool ranges when the
    multiply-add count reaches the parallel threshold. *)
let matmul_blocked ?pool ?block a b =
  let m, k, n = matmul_dims a b in
  let bs = match block with Some b -> max 1 b | None -> !block_size in
  let work = m * k * n in
  let rows kernel =
    match pool with
    | Some p when work >= matmul_par_threshold && m > 1 ->
        Pool.parallel_for_ranges p 0 m (fun lo hi -> kernel lo hi)
    | _ -> kernel 0 m
  in
  match (a.buf, b.buf) with
  | F x, F y ->
      let r = Array.make (m * n) 0. in
      rows (blocked_rows_f x y r k n bs);
      { shape = [| m; n |]; buf = F r }
  | I x, I y ->
      let r = Array.make (m * n) 0 in
      rows (blocked_rows_i x y r k n bs);
      { shape = [| m; n |]; buf = I r }
  | _ -> terr "matrix multiplication on boolean matrices"

(** Linear-algebra matrix multiplication — the meaning of [*] on two
    matrices; elementwise multiplication is the distinct [.*] operator
    (§III-A2). 2-D only, inner dimensions must agree.  Small products take
    the naive loop (no tiling overhead); larger ones take the blocked
    kernel, parallelised over row blocks when [?pool] is given. *)
let matmul ?pool ?block a b =
  Support.Telemetry.bump c_matmul;
  let m, k, n = matmul_dims a b in
  let work = m * k * n in
  if block = None && work < matmul_block_threshold then
    timed c_matmul_ns @@ fun () -> matmul_naive a b
  else begin
    Support.Telemetry.bump c_matmul_blocked;
    timed c_matmul_ns @@ fun () -> matmul_blocked ?pool ?block a b
  end

(* --- indexing (§III-A3) --------------------------------------------------- *)

type index =
  | At of int  (** single position: collapses the dimension *)
  | Range of int * int  (** inclusive [lo:hi] *)
  | All  (** [:] *)
  | Mask of t  (** logical indexing by a 1-D boolean matrix *)
  | Gather of t  (** indexing by a 1-D integer matrix *)

(* Selected source positions per dimension + whether the dim collapses. *)
let resolve_dim m d = function
  | At i ->
      if i < 0 || i >= m.shape.(d) then
        Shape.err "index %d out of bounds in dimension %d of %s" i d
          (Shape.to_string m.shape);
      ([| i |], true)
  | Range (lo, hi) ->
      if lo < 0 || hi >= m.shape.(d) || lo > hi then
        Shape.err "range %d:%d out of bounds in dimension %d of %s" lo hi d
          (Shape.to_string m.shape);
      (Array.init (hi - lo + 1) (fun i -> lo + i), false)
  | All -> (Array.init m.shape.(d) (fun i -> i), false)
  | Mask b -> (
      match b.buf with
      | B mask ->
          if rank b <> 1 || Array.length mask <> m.shape.(d) then
            Shape.err
              "logical index of shape %s does not match dimension %d (size %d)"
              (Shape.to_string b.shape) d m.shape.(d);
          let sel = ref [] in
          Array.iteri (fun i keep -> if keep then sel := i :: !sel) mask;
          (Array.of_list (List.rev !sel), false)
      | _ -> terr "logical index must be a boolean matrix")
  | Gather g -> (
      match g.buf with
      | I ids ->
          if rank g <> 1 then terr "gather index must be a 1-D integer matrix";
          Array.iter
            (fun i ->
              if i < 0 || i >= m.shape.(d) then
                Shape.err "gather index %d out of bounds in dimension %d" i d)
            ids;
          (Array.copy ids, false)
      | _ -> terr "gather index must be an integer matrix")

let resolve m (spec : index array) =
  if Array.length spec <> rank m then
    Shape.err "indexing with %d subscripts into rank-%d matrix"
      (Array.length spec) (rank m);
  Array.mapi (fun d s -> resolve_dim m d s) spec

(** [slice m spec] — the general right-hand-side indexing operation.
    Dimensions indexed with [At] collapse; the result of collapsing all
    dimensions is a rank-0 matrix (use {!to_scalar}). *)
let slice m spec : t =
  let sels = resolve m spec in
  let kept =
    Array.to_list sels
    |> List.filter_map (fun (sel, collapse) ->
           if collapse then None else Some (Array.length sel))
  in
  let out_shape = Array.of_list kept in
  let out = create (elem m) out_shape in
  let src_idx = Array.make (rank m) 0 in
  Shape.iter out_shape (fun out_idx ->
      let k = ref 0 in
      Array.iteri
        (fun d (sel, collapse) ->
          if collapse then src_idx.(d) <- sel.(0)
          else begin
            src_idx.(d) <- sel.(out_idx.(!k));
            incr k
          end)
        sels;
      set out out_idx (get m src_idx));
  out

(** [slice_assign m spec src] — indexing on the left-hand side of [=]:
    writes [src] into the selected region, which must match its shape. *)
let slice_assign m spec (src : t) : unit =
  let sels = resolve m spec in
  let kept =
    Array.to_list sels
    |> List.filter_map (fun (sel, collapse) ->
           if collapse then None else Some (Array.length sel))
  in
  let region = Array.of_list kept in
  if not (Shape.equal region src.shape) then
    Shape.err "assignment of %s into region %s" (Shape.to_string src.shape)
      (Shape.to_string region);
  same_elem m src;
  let dst_idx = Array.make (rank m) 0 in
  Shape.iter region (fun out_idx ->
      let k = ref 0 in
      Array.iteri
        (fun d (sel, collapse) ->
          if collapse then dst_idx.(d) <- sel.(0)
          else begin
            dst_idx.(d) <- sel.(out_idx.(!k));
            incr k
          end)
        sels;
      set m dst_idx (get src out_idx))

(** [fill_assign m spec v] — scalar broadcast into a selected region. *)
let fill_assign m spec (v : Scalar.t) : unit =
  let sels = resolve m spec in
  let kept =
    Array.to_list sels
    |> List.filter_map (fun (sel, collapse) ->
           if collapse then None else Some (Array.length sel))
  in
  let region = Array.of_list kept in
  let dst_idx = Array.make (rank m) 0 in
  Shape.iter region (fun out_idx ->
      let k = ref 0 in
      Array.iteri
        (fun d (sel, collapse) ->
          if collapse then dst_idx.(d) <- sel.(0)
          else begin
            dst_idx.(d) <- sel.(out_idx.(!k));
            incr k
          end)
        sels;
      set m dst_idx v)

let to_scalar m =
  if size m <> 1 then
    Shape.err "matrix of shape %s used as scalar" (Shape.to_string m.shape)
  else get_flat m 0

(* --- folds ---------------------------------------------------------------- *)

(** [fold f init m] — row-major fold over all elements (the runtime core of
    the fold with-loop). *)
let fold f init m =
  let acc = ref init in
  for off = 0 to size m - 1 do
    acc := f !acc (get_flat m off)
  done;
  !acc

(* Pool-parallel reduction: per-thread partial folds combined on the main
   thread.  Float addition reassociates, so parallel sums are only
   tolerance-equal to sequential ones (see {!approx_equal}); int/bool
   reductions are associative and bit-for-bit identical. *)
let par_reduce ?pool n ~init ~body ~combine =
  Support.Telemetry.bump c_reduce;
  timed c_reduce_ns @@ fun () ->
  match pool with
  | Some p when n >= !par_grain ->
      Pool.parallel_fold ~grain:(!par_grain / 4) p 0 n ~init ~body ~combine
  | _ ->
      let acc = ref init in
      for i = 0 to n - 1 do
        acc := body !acc i
      done;
      !acc

let sum_float ?pool m =
  match m.buf with
  | F a ->
      par_reduce ?pool (Array.length a) ~init:0.
        ~body:(fun acc i -> acc +. Array.unsafe_get a i)
        ~combine:( +. )
  | I a ->
      par_reduce ?pool (Array.length a) ~init:0.
        ~body:(fun acc i -> acc +. float_of_int (Array.unsafe_get a i))
        ~combine:( +. )
  | B _ -> terr "sum of boolean matrix"

let count_true ?pool m =
  match m.buf with
  | B a ->
      par_reduce ?pool (Array.length a) ~init:0
        ~body:(fun acc i -> if Array.unsafe_get a i then acc + 1 else acc)
        ~combine:( + )
  | _ -> terr "count_true on non-boolean matrix"

(* --- structural ----------------------------------------------------------- *)

let equal a b =
  Shape.equal a.shape b.shape
  &&
  match (a.buf, b.buf) with
  | F x, F y -> x = y
  | I x, I y -> x = y
  | B x, B y -> x = y
  | _ -> false

(** Approximate float equality with tolerance, for parallel-vs-serial and
    transformed-vs-baseline comparisons (FP reassociation). *)
let approx_equal ?(eps = 1e-6) a b =
  Shape.equal a.shape b.shape
  &&
  match (a.buf, b.buf) with
  | F x, F y ->
      let ok = ref true in
      Array.iteri
        (fun i v ->
          let d = abs_float (v -. y.(i)) in
          let scale = max 1. (max (abs_float v) (abs_float y.(i))) in
          if d > eps *. scale then ok := false)
        x;
      !ok
  | _ -> equal a b

let pp ppf m =
  let n = size m in
  let elems =
    List.init (min n 16) (fun i -> Scalar.to_string (get_flat m i))
  in
  Fmt.pf ppf "Matrix %s %s {%s%s}" (elem_name (elem m))
    (Shape.to_string m.shape)
    (String.concat ", " elems)
    (if n > 16 then ", …" else "")

let to_string m = Fmt.str "%a" pp m

(* --- matrix files (readMatrix / writeMatrix builtins) --------------------- *)

(* MMAT2: [magic], the kind byte ('f', 'i' or 'b'), the rank and each
   extent as 4-byte big-endian ints, then the elements as raw
   little-endian values: a float as its IEEE-754 binary64 bits (so NaN
   payloads and -0.0 survive), an int as int64, a bool as one byte 0 or
   1.  runtime/c/mm_runtime.c reads and writes the same bytes, and both
   backends reject the same files.  Elements move through one
   [io_chunk]-byte buffer in each direction, so a file of any size costs
   one chunk beyond the matrix itself. *)
let magic = "MMAT2\n"
let io_chunk = 65536

(* [chunks n ~width f] calls [f i k] for consecutive runs [i, i+k) of
   [n] elements of [width] bytes, each run filling at most one chunk. *)
let chunks n ~width f =
  let per = io_chunk / width in
  let rec go i =
    if i < n then begin
      let k = min per (n - i) in
      f i k;
      go (i + k)
    end
  in
  go 0

(** [write_file path m] — the [writeMatrix] builtin: an MMAT2 file. *)
let write_file path m =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      let kind = match elem m with EFloat -> 'f' | EInt -> 'i' | EBool -> 'b' in
      output_char oc kind;
      output_binary_int oc (rank m);
      Array.iter (output_binary_int oc) m.shape;
      let b = Bytes.create io_chunk in
      let put n ~width fill =
        chunks n ~width (fun i k ->
            fill i k;
            output oc b 0 (k * width))
      in
      match m.buf with
      | F a ->
          put (Array.length a) ~width:8 (fun i k ->
              for j = 0 to k - 1 do
                Bytes.set_int64_le b (8 * j)
                  (Int64.bits_of_float (Array.unsafe_get a (i + j)))
              done)
      | I a ->
          put (Array.length a) ~width:8 (fun i k ->
              for j = 0 to k - 1 do
                Bytes.set_int64_le b (8 * j)
                  (Int64.of_int (Array.unsafe_get a (i + j)))
              done)
      | B a ->
          put (Array.length a) ~width:1 (fun i k ->
              for j = 0 to k - 1 do
                Bytes.unsafe_set b j
                  (if Array.unsafe_get a (i + j) then '\001' else '\000')
              done))

(* Plausibility bounds on a parsed header: binary garbage can decode to
   any rank/extent, and without these caps a corrupt file turns into a
   multi-gigabyte allocation attempt instead of a diagnostic. *)
let max_rank = 16
let max_extent = 1 lsl 24
let max_elems = 1 lsl 28

(** [read_file path] — the [readMatrix] builtin.  Every failure mode — a
    missing file, wrong magic (an MMAT1 file is named as the old text
    format), an implausible header, a payload shorter or longer than the
    header implies, or a bool byte other than 0 or 1 — raises
    {!Io_error} naming the file, the byte offset where reading failed and
    what was expected there, instead of leaking [End_of_file] /
    [Sys_error]. *)
let read_file path =
  Support.Failpoint.hit fp_read;
  let ic =
    try open_in_bin path
    with Sys_error m -> io_err "readMatrix %S: cannot open: %s" path m
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (* [expected] describes what a well-formed file would contain at
         the failing offset, e.g. "extent of dimension 2". *)
      let guarded ~expected f =
        try f () with
        | End_of_file ->
            io_err "readMatrix %S: file is truncated at offset %d (expected %s)"
              path (pos_in ic) expected
        | Sys_error m ->
            io_err "readMatrix %S: read error at offset %d: %s" path
              (pos_in ic) m
      in
      let m =
        guarded ~expected:(Printf.sprintf "magic %S" magic) (fun () ->
            really_input_string ic (String.length magic))
      in
      if m = "MMAT1\n" then
        io_err
          "readMatrix %S: MMAT1 at offset 0 is the old decimal text format, \
           which is no longer read (expected magic %S; write the matrix \
           again with writeMatrix)"
          path magic;
      if m <> magic then
        io_err "readMatrix %S: bad magic %S at offset 0 (expected %S)" path m
          magic;
      let kind =
        guarded ~expected:"element kind 'f', 'i' or 'b'" (fun () ->
            input_char ic)
      in
      if kind <> 'f' && kind <> 'i' && kind <> 'b' then
        io_err "readMatrix %S: unknown element kind %C at offset %d \
                (expected 'f', 'i' or 'b')"
          path kind
          (pos_in ic - 1);
      let r = guarded ~expected:"rank" (fun () -> input_binary_int ic) in
      if r < 0 || r > max_rank then
        io_err "readMatrix %S: implausible rank %d at offset %d (expected 0..%d)"
          path r (pos_in ic - 4) max_rank;
      let sh =
        Array.init r (fun d ->
            let e =
              guarded
                ~expected:(Printf.sprintf "extent of dimension %d" d)
                (fun () -> input_binary_int ic)
            in
            if e < 0 || e > max_extent then
              io_err
                "readMatrix %S: implausible extent %d in dimension %d at \
                 offset %d (expected 0..%d)"
                path e d (pos_in ic - 4) max_extent;
            e)
      in
      (* The element count saturates above [max_elems]: eight extents
         of 2^24 would overflow an int and could wrap to 0. *)
      let n =
        Array.fold_left
          (fun n e -> if e = 0 then 0 else if n > max_elems then n else n * e)
          1 sh
      in
      if n > max_elems then
        io_err "readMatrix %S: shape %s holds more than %d elements" path
          (Shape.to_string sh) max_elems;
      (* The payload size is fixed by the header: check it against the
         file before allocating. *)
      let width = if kind = 'b' then 1 else 8 in
      let start = pos_in ic in
      let size = start + (n * width) in
      let len =
        guarded ~expected:"a payload" (fun () -> in_channel_length ic)
      in
      let what = match kind with 'f' -> "float" | 'i' -> "int" | _ -> "bool" in
      if len < size then
        io_err
          "readMatrix %S: file is truncated at offset %d (expected element %d \
           of %d (%s) for shape %s; the header implies %d bytes)"
          path len ((len - start) / width) n what (Shape.to_string sh) size;
      if len > size then
        io_err
          "readMatrix %S: trailing data at offset %d (the file has %d bytes; \
           the header implies %d for shape %s)"
          path size len size (Shape.to_string sh);
      let b = Bytes.create io_chunk in
      let get ~width decode =
        chunks n ~width (fun i k ->
            guarded ~expected:"the rest of the payload" (fun () ->
                really_input ic b 0 (k * width));
            decode i k)
      in
      match kind with
      | 'f' ->
          let a = Array.create_float n in
          get ~width:8 (fun i k ->
              for j = 0 to k - 1 do
                Array.unsafe_set a (i + j)
                  (Int64.float_of_bits (Bytes.get_int64_le b (8 * j)))
              done);
          { shape = sh; buf = F a }
      | 'i' ->
          let a = Array.make n 0 in
          get ~width:8 (fun i k ->
              for j = 0 to k - 1 do
                Array.unsafe_set a (i + j)
                  (Int64.to_int (Bytes.get_int64_le b (8 * j)))
              done);
          { shape = sh; buf = I a }
      | _ ->
          let a = Array.make n false in
          get ~width:1 (fun i k ->
              for j = 0 to k - 1 do
                match Bytes.unsafe_get b j with
                | '\000' -> ()
                | '\001' -> Array.unsafe_set a (i + j) true
                | c ->
                    io_err
                      "readMatrix %S: bad bool byte %d for element %d at \
                       offset %d (expected 0 or 1)"
                      path (Char.code c) (i + j) (start + i + j)
              done);
          { shape = sh; buf = B a })
