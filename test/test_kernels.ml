(* Parallel execution of the loops the matrix extension lowers to
   (§III-C): matrix-multiplication rows, elementwise operations and row
   reductions promoted to ParFor regions on the pool must match the
   sequential run bit for bit, with the same errors; pool scheduling edge
   cases (coverage, nesting, exceptions, degenerate pools); and a
   differential pool-vs-no-pool pass over every paper program.

   Randomized cases use seeded [Random.State] PRNGs so every run sees
   the same shapes. *)

module Nd = Runtime.Ndarray
module Pool = Runtime.Pool
module S = Runtime.Scalar
module T = Support.Telemetry

let nd = Alcotest.testable Nd.pp Nd.equal

let full = Driver.compose [ Driver.matrix; Driver.transform; Driver.refptr ]

let fresh_dir () =
  let d = Filename.temp_file "mmkern" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rand_float_mat st sh =
  Nd.init_float sh (fun _ -> Random.State.float st 20. -. 10.)

let rand_int_mat st sh =
  Nd.init_int sh (fun _ -> Random.State.int st 41 - 20)

let auto_par = Driver.Pipeline.enable (Driver.default_config full) "auto-par" true

(* Run [src] with auto-par lowering, on [pool] if given, over [inputs] in
   a fresh data directory: the outputs it wrote and its live count. *)
let run_differential ?pool ~inputs ~outputs src =
  let dir = fresh_dir () in
  List.iter (fun (name, m) -> Interp.Eval.provide_input ~dir name m) inputs;
  Runtime.Rc.reset ();
  (match Driver.run ~dir ?pool ~config:auto_par full src [] with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds ->
      Alcotest.failf "differential run failed: %s" (Driver.diags_to_string ds));
  let leaks = Runtime.Rc.live_count () in
  (List.map (fun name -> Interp.Eval.fetch_output ~dir name) outputs, leaks)

(* [src] sequentially and on a 4-thread pool: the written matrices must
   be identical and nothing may leak.  Returns the pooled outputs. *)
let pool_matches_seq ~label ~inputs ~outputs src =
  let seq, leaks_seq = run_differential ~inputs ~outputs src in
  let par, leaks_par =
    Pool.with_pool 4 (fun pool -> run_differential ~pool ~inputs ~outputs src)
  in
  List.iter2
    (fun (name, a) b -> Alcotest.check nd (label ^ ": pooled " ^ name) a b)
    (List.combine outputs seq) par;
  Alcotest.(check int) (label ^ ": no leaks (seq)") 0 leaks_seq;
  Alcotest.(check int) (label ^ ": no leaks (pool)") 0 leaks_par;
  par

(* The diagnostics of a run that must fail, sequentially or on a pool. *)
let failure ?pool src =
  match Driver.run ?pool ~config:auto_par full src [] with
  | Driver.Ok_ v -> Alcotest.failf "expected a failure, got %a" Interp.Eval.pp_value v
  | Driver.Failed ds -> Driver.diags_to_string ds

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* --- matrix multiplication ------------------------------------------------------ *)

(* The [a * b] row loop is a ParFor region: rows computed on different
   workers still match the sequential run and the naive triple loop
   (float dot products accumulate in the same order, so exactly). *)
let test_matmul_parallel_dispatch () =
  let st = Random.State.make [| 7; 7; 7 |] in
  let m = 40 and k = 33 and n = 37 in
  let a = rand_float_mat st [| m; k |] and b = rand_float_mat st [| k; n |] in
  let ai = rand_int_mat st [| m; k |] and bi = rand_int_mat st [| k; n |] in
  let par =
    pool_matches_seq ~label:"matmul"
      ~inputs:[ ("a.data", a); ("b.data", b); ("ai.data", ai); ("bi.data", bi) ]
      ~outputs:[ "c.data"; "ci.data" ]
      {|
int main() {
  Matrix float <2> a = readMatrix("a.data");
  Matrix float <2> b = readMatrix("b.data");
  Matrix int <2> ai = readMatrix("ai.data");
  Matrix int <2> bi = readMatrix("bi.data");
  Matrix float <2> c = a * b;
  Matrix int <2> ci = ai * bi;
  writeMatrix("c.data", c);
  writeMatrix("ci.data", ci);
  return 0;
}
|}
  in
  let dot x y ix =
    let acc = ref (S.I 0) in
    for l = 0 to k - 1 do
      acc :=
        S.arith S.Add !acc
          (S.arith S.Mul (Nd.get x [| ix.(0); l |]) (Nd.get y [| l; ix.(1) |]))
    done;
    !acc
  in
  Alcotest.check nd "float rows match the triple loop"
    (Nd.init_float [| m; n |] (fun ix -> S.to_float (dot a b ix)))
    (List.nth par 0);
  Alcotest.check nd "int rows match the triple loop"
    (Nd.init_int [| m; n |] (fun ix -> S.to_int (dot ai bi ix)))
    (List.nth par 1)

(* Operand errors: the checker rejects rank-1, boolean and mixed-type
   products; disagreeing inner dimensions over-read at run time, with the
   same diagnostic sequentially and on the pool. *)
let test_matmul_errors () =
  List.iter
    (fun (decls, expected) ->
      let text = failure (Printf.sprintf "int main() { %s return 0; }" decls) in
      Alcotest.(check bool)
        (Printf.sprintf "%s (got: %s)" expected text)
        true (contains ~affix:expected text))
    [
      ( "Matrix float <1> v = with ([0] <= [i] < [3]) genarray([3], 1.0); \
         Matrix float <1> w = v * v;",
        "matrix multiplication requires rank-2 operands" );
      ( "Matrix bool <2> m = with ([0,0] <= [i,j] < [2,2]) genarray([2,2], i > j); \
         Matrix bool <2> c = m * m;",
        "matrix multiplication on boolean matrices" );
      ( "Matrix float <2> a = with ([0,0] <= [i,j] < [2,3]) genarray([2,3], 1.0); \
         Matrix int <2> b = with ([0,0] <= [i,j] < [3,2]) genarray([3,2], 1); \
         Matrix float <2> c = a * b;",
        "* requires matrices of the same element type" );
    ];
  let inner =
    {|
int main() {
  Matrix float <2> a = with ([0,0] <= [i,j] < [2,3]) genarray([2,3], (float)(i + j));
  Matrix float <2> c = a * a;
  return 0;
}
|}
  in
  let seq = failure inner in
  Alcotest.(check bool)
    (Printf.sprintf "inner dimensions checked (got: %s)" seq)
    true
    (contains
       ~affix:"inner dimensions of the matrix product disagree: 3 against 2"
       seq);
  Alcotest.(check string) "same diagnostic on the pool" seq
    (Pool.with_pool 4 (fun pool -> failure ~pool inner))

(* --- elementwise operations and reductions -------------------------------------- *)

(* Elementwise maps write one output element per index: pooled runs are
   bit-for-bit identical to sequential ones, floats included. *)
let test_elementwise_parity () =
  let st = Random.State.make [| 0xE1E; 9 |] in
  let sh = [| 1 + Random.State.int st 20; 1 + Random.State.int st 30 |] in
  ignore
    (pool_matches_seq ~label:"elementwise"
       ~inputs:
         [
           ("a.data", rand_float_mat st sh);
           ("b.data", rand_float_mat st sh);
           ("ai.data", rand_int_mat st sh);
           ("bi.data", Nd.init_int sh (fun _ -> 1 + Random.State.int st 9));
         ]
       ~outputs:
         [ "sum.data"; "dif.data"; "prd.data"; "quo.data"; "scl.data";
           "rsc.data"; "idv.data"; "imd.data"; "cmp.data"; "lgc.data";
           "neg.data"; "ineg.data" ]
       {|
int main() {
  Matrix float <2> a = readMatrix("a.data");
  Matrix float <2> b = readMatrix("b.data");
  Matrix int <2> ai = readMatrix("ai.data");
  Matrix int <2> bi = readMatrix("bi.data");
  Matrix float <2> sum = a + b;
  Matrix float <2> dif = a - b;
  Matrix float <2> prd = a .* b;
  Matrix float <2> quo = a / b;
  Matrix float <2> scl = a * 1.5;
  Matrix float <2> rsc = 0.5 - a;
  Matrix int <2> idv = ai / bi;
  Matrix int <2> imd = ai % bi;
  Matrix bool <2> cmp = a < b;
  Matrix bool <2> lgc = !(a >= b) && (a > 0.0) || (ai == bi);
  Matrix float <2> neg = -a;
  Matrix int <2> ineg = -ai;
  writeMatrix("sum.data", sum);
  writeMatrix("dif.data", dif);
  writeMatrix("prd.data", prd);
  writeMatrix("quo.data", quo);
  writeMatrix("scl.data", scl);
  writeMatrix("rsc.data", rsc);
  writeMatrix("idv.data", idv);
  writeMatrix("imd.data", imd);
  writeMatrix("cmp.data", cmp);
  writeMatrix("lgc.data", lgc);
  writeMatrix("neg.data", neg);
  writeMatrix("ineg.data", ineg);
  return 0;
}
|})

(* Error semantics survive the parallel region: the same diagnostic,
   sequential and pooled; a float [%] is a type error. *)
let test_elementwise_errors () =
  let prog op =
    Printf.sprintf
      {|
int main() {
  Matrix int <1> z = with ([0] <= [i] < [64]) genarray([64], (i + 1) %% 40);
  Matrix int <1> o = with ([0] <= [i] < [64]) genarray([64], 9);
  Matrix int <1> q = o %s z;
  return q[0];
}
|}
      op
  in
  Pool.with_pool 2 @@ fun pool ->
  List.iter
    (fun (op, expected) ->
      let seq = failure (prog op) in
      Alcotest.(check bool)
        (Printf.sprintf "%s (got: %s)" expected seq)
        true (contains ~affix:expected seq);
      Alcotest.(check string) (expected ^ " on the pool") seq
        (failure ~pool (prog op)))
    [ ("/", "integer division by zero"); ("%", "modulo by zero") ];
  let text =
    failure
      "int main() { Matrix float <1> f = with ([0] <= [i] < [2]) \
       genarray([2], 1.5); Matrix float <1> g = f % f; return 0; }"
  in
  Alcotest.(check bool)
    (Printf.sprintf "float %% rejected (got: %s)" text)
    true
    (contains ~affix:"% requires integer matrices" text)

(* Row reductions: the genarray over rows is a ParFor region, each
   row's fold runs on one worker, in order — exactly the sequential
   sums. *)
let test_reduction_parity () =
  let st = Random.State.make [| 0x5EED |] in
  let m = 1 + Random.State.int st 40 and n = 1 + Random.State.int st 300 in
  let a = rand_float_mat st [| m; n |] and ai = rand_int_mat st [| m; n |] in
  let par =
    pool_matches_seq ~label:"reductions"
      ~inputs:[ ("a.data", a); ("ai.data", ai) ]
      ~outputs:[ "rows.data"; "irows.data"; "pos.data" ]
      {|
int main() {
  Matrix float <2> a = readMatrix("a.data");
  Matrix int <2> ai = readMatrix("ai.data");
  int m = dimSize(a, 0);
  int n = dimSize(a, 1);
  Matrix float <1> rows = with ([0] <= [i] < [m]) genarray([m],
    with ([0] <= [j] < [n]) fold (+, 0.0, a[i, j]));
  Matrix int <1> irows = with ([0] <= [i] < [m]) genarray([m],
    with ([0] <= [j] < [n]) fold (+, 0, ai[i, j]));
  Matrix int <1> pos = with ([0] <= [i] < [m]) genarray([m],
    with ([0] <= [j] < [n]) fold (max, 0, ai[i, j]));
  writeMatrix("rows.data", rows);
  writeMatrix("irows.data", irows);
  writeMatrix("pos.data", pos);
  return 0;
}
|}
  in
  let row f init x =
    Array.init m (fun i ->
        let acc = ref init in
        for j = 0 to n - 1 do
          acc := f !acc (Nd.get x [| i; j |])
        done;
        !acc)
  in
  let add = S.arith S.Add in
  Alcotest.check nd "float row sums"
    (Nd.of_float_array [| m |]
       (Array.map S.to_float (row add (S.F 0.) a)))
    (List.nth par 0);
  Alcotest.check nd "int row sums"
    (Nd.of_int_array [| m |] (Array.map S.to_int (row add (S.I 0) ai)))
    (List.nth par 1);
  Alcotest.check nd "int row maxima"
    (Nd.of_int_array [| m |]
       (Array.map S.to_int
          (row (fun x y -> if S.to_int y > S.to_int x then y else x) (S.I 0) ai)))
    (List.nth par 2)

(* --- pool scheduling edge cases -------------------------------------------------- *)

(* Every index visited exactly once, for a spread of bounds (including
   non-zero lo, single-index and empty ranges). *)
let test_chunked_coverage () =
  Pool.with_pool 4 @@ fun pool ->
  List.iter
    (fun (lo, hi) ->
      let n = max 0 (hi - lo) in
      let hits = Array.make (max 1 n) 0 in
      Pool.parallel_for pool lo hi (fun i -> hits.(i - lo) <- hits.(i - lo) + 1);
      Array.iteri
        (fun i c ->
          if n > 0 && c <> 1 then
            Alcotest.failf "index %d visited %d times (lo=%d hi=%d)" (i + lo) c
              lo hi)
        hits)
    [ (0, 1_000); (13, 977); (0, 5); (0, 1); (5, 5); (9, 3) ]

let test_pool_degenerate () =
  Alcotest.check_raises "create 0"
    (Invalid_argument "Pool.create: need at least one thread") (fun () ->
      ignore (Pool.create 0));
  Pool.with_pool 1 (fun pool ->
      Alcotest.(check int) "1-thread pool" 1 (Pool.threads pool);
      let sum = ref 0 in
      Pool.parallel_for pool 0 100 (fun i -> sum := !sum + i);
      Alcotest.(check int) "inline execution" 4950 !sum);
  Pool.with_pool 4 (fun pool ->
      let hit = ref false in
      Pool.parallel_for pool 3 3 (fun _ -> hit := true);
      Pool.parallel_for pool 7 2 (fun _ -> hit := true);
      Alcotest.(check bool) "empty ranges never run the body" false !hit)

(* A parallel op issued from inside a worker's share must not deadlock on
   the single job slot: it executes inline in the outer region. *)
let test_nested_dispatch () =
  Pool.with_pool 4 @@ fun pool ->
  let outer = Pool.threads pool in
  let counts = Array.make (outer * 100) 0 in
  Pool.run pool (fun t _n ->
      Pool.parallel_for pool 0 100 (fun i ->
          let c = (t * 100) + i in
          counts.(c) <- counts.(c) + 1));
  Alcotest.(check bool) "every nested iteration ran exactly once" true
    (Array.for_all (fun c -> c = 1) counts)

exception Chunk_boom

let test_exception_mid_chunk () =
  Printexc.record_backtrace true;
  Pool.with_pool 4 @@ fun pool ->
  let raised =
    match
      Pool.parallel_for pool 0 10_000 (fun i ->
          if i = 7_777 then raise Chunk_boom)
    with
    | () -> false
    | exception Chunk_boom -> true
  in
  Alcotest.(check bool) "exception escapes the region" true raised;
  (* the pool must be fully reusable after a failed region *)
  let sum = ref 0 in
  let cell = Atomic.make 0 in
  Pool.parallel_for pool 0 1_000 (fun _ -> Atomic.incr cell);
  sum := Atomic.get cell;
  Alcotest.(check int) "pool reusable after exception" 1_000 !sum

(* --- kernel telemetry ------------------------------------------------------------ *)

(* A promoted elementwise loop on a 2-thread pool dispatches a region and
   counts its chunks. *)
let test_kernel_counters () =
  T.reset ();
  T.set_enabled true;
  Fun.protect ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
  @@ fun () ->
  Pool.with_pool 2 (fun pool ->
      match
        Driver.run ~pool ~config:auto_par full
          "int main() { Matrix int <1> v = with ([0] <= [i] < [100]) \
           genarray([100], i); Matrix int <1> w = v + v; return w[99]; }"
          []
      with
      | Driver.Ok_ (Interp.Eval.VScal (S.I 198)) -> ()
      | Driver.Ok_ v -> Alcotest.failf "got %a" Interp.Eval.pp_value v
      | Driver.Failed ds -> Alcotest.failf "%s" (Driver.diags_to_string ds));
  List.iter
    (fun name ->
      match List.assoc_opt name (T.counters ()) with
      | Some c when c >= 1 -> ()
      | v ->
          Alcotest.failf "%s expected >= 1, got %s" name
            (match v with None -> "none" | Some c -> string_of_int c))
    [ "pool.jobs_dispatched"; "pool.chunks_dispatched" ]

(* --- differential: every paper program, pool vs no pool --------------------------- *)

(* Planted trough signature (Fig 7) so Fig 8's scoring walks real series. *)
let trough_cube =
  let ts k =
    let fk = float_of_int k in
    if k < 10 then 1.0 +. (0.01 *. fk)
    else if k < 20 then 1.1 -. (0.1 *. (fk -. 10.))
    else if k < 30 then 0.1 +. (0.1 *. (fk -. 20.))
    else 1.1 -. (0.005 *. (fk -. 30.))
  in
  lazy (Nd.init_float [| 3; 4; 40 |] (fun ix -> ts ix.(2)))

(* An SSH field with actual eddies (values below the -0.25 threshold) so
   Fig 4's connected components labels something. *)
let eddy_inputs =
  lazy
    (let cube, _ = Eddy.Ssh_gen.generate ~lat:10 ~lon:12 ~time:3 ~n_eddies:2 ~seed:11 () in
     let dates = Nd.init_int [| 3 |] (fun ix -> 1012000 + ix.(0)) in
     (cube, dates))

let differential_programs () =
  let cube = Lazy.force trough_cube in
  let eddy_cube, dates = Lazy.force eddy_inputs in
  [
    ("fig1", Eddy.Programs.fig1_temporal_mean, [ ("ssh.data", cube) ],
     [ "means.data" ]);
    ("fig9 transformed", Eddy.Programs.fig9_transformed,
     [ ("ssh.data", cube) ], [ "means.data" ]);
    (* tile/interchange scripts need a perfect For nest, which auto-par's
       ParFor outer loop is not — the split+unroll script transforms the
       inner fold loop and composes with parallel lowering *)
    ("fig9 split+unroll",
     Eddy.Programs.fig9_with_script "split k by 4, kin, kout. unroll kin by 4",
     [ ("ssh.data", cube) ], [ "means.data" ]);
    ("fig1 slice copy", Eddy.Programs.fig1_with_slice_copy,
     [ ("ssh.data", cube) ], [ "means.data" ]);
    ("fig8", Eddy.Programs.fig8_scoring, [ ("ssh.data", cube) ],
     [ "temporalScores.data" ]);
    ("fig4", Eddy.Programs.fig4_conncomp,
     [ ("ssh.data", eddy_cube); ("dates.data", dates) ],
     [ "eddyLabels.data" ]);
  ]

(* Scheduling must be unobservable: with auto-par lowering on both sides,
   a 4-worker pool and no pool at all must produce identical outputs
   (bit-for-bit — parallel regions only ever write disjoint elements). *)
let test_differential_pool_vs_none () =
  List.iter
    (fun (label, src, inputs, outputs) ->
      ignore (pool_matches_seq ~label ~inputs ~outputs src))
    (differential_programs ())

(* The examples/ program (a fold with-loop over a vector) returns through
   the interpreter value, not a written matrix. *)
let test_differential_example_program () =
  let src =
    {|
int main() {
  Matrix int <1> v = init(Matrix int <1>, 8);
  for (int i = 0; i < 8; i++) { v[i] = i; }
  int total = with ([0] <= [i] < [8]) fold (+, 0, v[i]);
  return total;
}
|}
  in
  let run ?pool () =
    match Driver.run ?pool ~config:auto_par full src [] with
    | Driver.Ok_ (Interp.Eval.VScal (S.I n)) -> n
    | Driver.Ok_ v ->
        Alcotest.failf "unexpected value %a" Interp.Eval.pp_value v
    | Driver.Failed ds -> Alcotest.failf "%s" (Driver.diags_to_string ds)
  in
  let seq = run () in
  let par = Pool.with_pool 4 (fun pool -> run ~pool ()) in
  Alcotest.(check int) "example program value" 28 seq;
  Alcotest.(check int) "pool matches" seq par

let suite =
  [
    Alcotest.test_case "matmul parallel row dispatch" `Quick
      test_matmul_parallel_dispatch;
    Alcotest.test_case "matmul error cases" `Quick test_matmul_errors;
    Alcotest.test_case "parallel elementwise bit-for-bit" `Quick
      test_elementwise_parity;
    Alcotest.test_case "elementwise error semantics" `Quick
      test_elementwise_errors;
    Alcotest.test_case "parallel reductions" `Quick test_reduction_parity;
    Alcotest.test_case "chunked scheduling coverage" `Quick
      test_chunked_coverage;
    Alcotest.test_case "degenerate pools" `Quick test_pool_degenerate;
    Alcotest.test_case "nested dispatch from a worker" `Quick
      test_nested_dispatch;
    Alcotest.test_case "exception mid-chunk, pool reusable" `Quick
      test_exception_mid_chunk;
    Alcotest.test_case "kernel telemetry counters" `Quick
      test_kernel_counters;
    Alcotest.test_case "differential: programs, pool vs none" `Quick
      test_differential_pool_vs_none;
    Alcotest.test_case "differential: example fold program" `Quick
      test_differential_example_program;
  ]
