(* Kernel-level correctness for the parallel cache-blocked runtime
   (§III-C): the blocked/parallel matmul against the naive triple-loop
   oracle over hundreds of random shapes, parallel elementwise and
   reduction parity with the sequential paths, pool scheduling edge
   cases (chunking, nesting, exceptions, degenerate pools), and a
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

(* Temporarily lower the pool-dispatch grain so matrices of a few hundred
   elements exercise the parallel kernels. *)
let with_grain g f =
  let saved = Nd.get_par_grain () in
  Nd.set_par_grain g;
  Fun.protect ~finally:(fun () -> Nd.set_par_grain saved) f

let rand_float_mat st sh =
  Nd.init_float sh (fun _ -> Random.State.float st 20. -. 10.)

let rand_int_mat st sh =
  Nd.init_int sh (fun _ -> Random.State.int st 41 - 20)

(* --- blocked matmul vs the naive oracle -------------------------------------- *)

(* ~200 random shapes, block sizes deliberately not dividing the matrix
   extents, alternating pool/no-pool dispatch.  Float results are
   tolerance-compared (the l-tiling reassociates the dot products); int
   addition is associative, so int results must be bit-for-bit. *)
let test_matmul_oracle_random () =
  let st = Random.State.make [| 0xB10C; 42 |] in
  let blocks = [| 1; 2; 3; 5; 8; 48 |] in
  Pool.with_pool 4 @@ fun pool ->
  for trial = 1 to 100 do
    let m = 1 + Random.State.int st 33
    and k = 1 + Random.State.int st 33
    and n = 1 + Random.State.int st 33 in
    let block = blocks.(Random.State.int st (Array.length blocks)) in
    let pool = if trial mod 2 = 0 then Some pool else None in
    let a = rand_float_mat st [| m; k |] and b = rand_float_mat st [| k; n |] in
    let expect = Nd.matmul_naive a b in
    let got = Nd.matmul_blocked ?pool ~block a b in
    if not (Nd.approx_equal ~eps:1e-9 expect got) then
      Alcotest.failf "float %dx%dx%d block=%d: blocked result diverges" m k n
        block;
    let ai = rand_int_mat st [| m; k |] and bi = rand_int_mat st [| k; n |] in
    Alcotest.check nd
      (Printf.sprintf "int %dx%dx%d block=%d bit-for-bit" m k n block)
      (Nd.matmul_naive ai bi)
      (Nd.matmul_blocked ?pool ~block ai bi)
  done

(* The [matmul] dispatcher at a size over the parallel threshold: row
   blocks really go through the pool and still match the oracle. *)
let test_matmul_parallel_dispatch () =
  let st = Random.State.make [| 7; 7; 7 |] in
  let s = 70 in
  (* s^3 > 2^18 *)
  let a = rand_float_mat st [| s; s |] and b = rand_float_mat st [| s; s |] in
  let expect = Nd.matmul_naive a b in
  Pool.with_pool 4 (fun pool ->
      Alcotest.(check bool)
        "pooled matmul matches naive" true
        (Nd.approx_equal ~eps:1e-9 expect (Nd.matmul ~pool a b)));
  let ai = rand_int_mat st [| s; s |] and bi = rand_int_mat st [| s; s |] in
  Pool.with_pool 4 (fun pool ->
      Alcotest.check nd "pooled int matmul bit-for-bit"
        (Nd.matmul_naive ai bi) (Nd.matmul ~pool ai bi))

let test_matmul_errors () =
  let v = Nd.of_float_array [| 3 |] [| 1.; 2.; 3. |] in
  let a = Nd.of_float_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  Alcotest.check_raises "rank"
    (Runtime.Shape.Shape_error
       "matrix multiplication requires rank 2, got [3] and [3]")
    (fun () -> ignore (Nd.matmul v v));
  Alcotest.check_raises "inner dims"
    (Runtime.Shape.Shape_error
       "matrix multiplication inner dimensions: [2x3] vs [2x3]")
    (fun () -> ignore (Nd.matmul a a));
  Alcotest.check_raises "blocked kernel validates too"
    (Runtime.Shape.Shape_error
       "matrix multiplication inner dimensions: [2x3] vs [2x3]")
    (fun () -> ignore (Nd.matmul_blocked a a));
  let bm = Nd.of_bool_array [| 1; 1 |] [| true |] in
  Alcotest.check_raises "boolean"
    (Nd.Type_error "matrix multiplication on boolean matrices")
    (fun () -> ignore (Nd.matmul bm bm))

(* --- parallel elementwise parity ---------------------------------------------- *)

(* Elementwise maps are order-independent: the pooled kernels must be
   bit-for-bit identical to the sequential ones, floats included. *)
let test_elementwise_parity () =
  let st = Random.State.make [| 0xE1E; 9 |] in
  with_grain 64 @@ fun () ->
  Pool.with_pool 4 @@ fun pool ->
  for _ = 1 to 25 do
    let sh = [| 1 + Random.State.int st 20; 1 + Random.State.int st 30 |] in
    let a = rand_float_mat st sh and b = rand_float_mat st sh in
    List.iter
      (fun op ->
        Alcotest.check nd "float arith" (Nd.arith op a b)
          (Nd.arith ~pool op a b))
      [ S.Add; S.Sub; S.Mul; S.Div ];
    let ai = rand_int_mat st sh in
    let bi = Nd.init_int sh (fun _ -> 1 + Random.State.int st 9) in
    List.iter
      (fun op ->
        Alcotest.check nd "int arith" (Nd.arith op ai bi)
          (Nd.arith ~pool op ai bi))
      [ S.Add; S.Sub; S.Mul; S.Div; S.Mod ];
    List.iter
      (fun op ->
        Alcotest.check nd "float cmp" (Nd.cmp op a b) (Nd.cmp ~pool op a b);
        Alcotest.check nd "int cmp" (Nd.cmp op ai bi) (Nd.cmp ~pool op ai bi))
      [ S.Lt; S.Le; S.Gt; S.Ge; S.Eq; S.Ne ];
    List.iter
      (fun scalar_left ->
        Alcotest.check nd "arith_scalar"
          (Nd.arith_scalar S.Mul a (S.F 1.5) ~scalar_left)
          (Nd.arith_scalar ~pool S.Mul a (S.F 1.5) ~scalar_left);
        Alcotest.check nd "int-matrix float-scalar"
          (Nd.arith_scalar S.Add ai (S.F 0.5) ~scalar_left)
          (Nd.arith_scalar ~pool S.Add ai (S.F 0.5) ~scalar_left);
        Alcotest.check nd "cmp_scalar"
          (Nd.cmp_scalar S.Lt a (S.F 0.) ~scalar_left)
          (Nd.cmp_scalar ~pool S.Lt a (S.F 0.) ~scalar_left))
      [ true; false ];
    let ma = Nd.cmp_scalar S.Gt a (S.F 0.) ~scalar_left:false in
    let mb = Nd.cmp_scalar S.Gt b (S.F 0.) ~scalar_left:false in
    Alcotest.check nd "logic and" (Nd.logic S.And ma mb)
      (Nd.logic ~pool S.And ma mb);
    Alcotest.check nd "logic or" (Nd.logic S.Or ma mb)
      (Nd.logic ~pool S.Or ma mb);
    Alcotest.check nd "not" (Nd.not_ ma) (Nd.not_ ~pool ma);
    Alcotest.check nd "neg float" (Nd.neg a) (Nd.neg ~pool a);
    Alcotest.check nd "neg int" (Nd.neg ai) (Nd.neg ~pool ai)
  done

(* Error semantics survive the fast paths, sequential and pooled. *)
let test_elementwise_errors () =
  with_grain 4 @@ fun () ->
  Pool.with_pool 2 @@ fun pool ->
  let z = Nd.of_int_array [| 4 |] [| 1; 0; 2; 3 |] in
  let o = Nd.of_int_array [| 4 |] [| 9; 9; 9; 9 |] in
  Alcotest.check_raises "div by zero (seq)"
    (S.Type_error "integer division by zero") (fun () ->
      ignore (Nd.arith S.Div o z));
  Alcotest.check_raises "div by zero (pool)"
    (S.Type_error "integer division by zero") (fun () ->
      ignore (Nd.arith ~pool S.Div o z));
  Alcotest.check_raises "mod by zero"
    (S.Type_error "modulo by zero") (fun () ->
      ignore (Nd.arith ~pool S.Mod o z));
  let f = Nd.of_float_array [| 2 |] [| 1.; 2. |] in
  Alcotest.check_raises "float mod"
    (S.Type_error "% requires integer operands") (fun () ->
      ignore (Nd.arith ~pool S.Mod f f));
  let b = Nd.of_bool_array [| 2 |] [| true; false |] in
  Alcotest.check_raises "bool arith"
    (Nd.Type_error "arithmetic on boolean matrices") (fun () ->
      ignore (Nd.arith ~pool S.Add b b))

(* --- parallel reductions -------------------------------------------------------- *)

let test_reduction_parity () =
  let st = Random.State.make [| 0x5EED |] in
  with_grain 100 @@ fun () ->
  Pool.with_pool 4 @@ fun pool ->
  for _ = 1 to 20 do
    let n = 1 + Random.State.int st 5_000 in
    let v = rand_float_mat st [| n |] in
    let seq = Nd.sum_float v and par = Nd.sum_float ~pool v in
    (* per-thread partials reassociate the float sum: tolerance, scaled *)
    let scale = max 1. (abs_float seq) in
    if abs_float (seq -. par) > 1e-9 *. scale then
      Alcotest.failf "sum_float diverges: %.17g vs %.17g (n=%d)" seq par n;
    let vi = rand_int_mat st [| n |] in
    let si = Nd.sum_float vi and pi = Nd.sum_float ~pool vi in
    Alcotest.(check (float 0.)) "int sum exact" si pi;
    let mask = Nd.cmp_scalar S.Gt vi (S.I 0) ~scalar_left:false in
    Alcotest.(check int) "count_true exact" (Nd.count_true mask)
      (Nd.count_true ~pool mask)
  done

let test_parallel_fold () =
  Pool.with_pool 3 @@ fun pool ->
  let n = 10_000 in
  let expect = n * (n - 1) / 2 in
  let got =
    Pool.parallel_fold pool 0 n ~init:0 ~body:(fun acc i -> acc + i)
      ~combine:( + )
  in
  Alcotest.(check int) "sum 0..n-1" expect got;
  Alcotest.(check int) "empty fold returns init" 42
    (Pool.parallel_fold pool 9 3 ~init:42 ~body:(fun _ _ -> 0) ~combine:( + ));
  Alcotest.(check int) "grain keeps small folds inline" 6
    (Pool.parallel_fold ~grain:100 pool 0 4 ~init:0 ~body:(fun a i -> a + i)
       ~combine:( + ))

(* --- pool scheduling edge cases -------------------------------------------------- *)

(* Every index visited exactly once, for both chunking policies, a spread
   of grains and bounds (including non-zero lo). *)
let test_chunked_coverage () =
  Pool.with_pool 4 @@ fun pool ->
  List.iter
    (fun chunking ->
      List.iter
        (fun (lo, hi, grain) ->
          let n = max 0 (hi - lo) in
          let hits = Array.make (max 1 n) 0 in
          Pool.parallel_for ~chunking ~grain pool lo hi (fun i ->
              hits.(i - lo) <- hits.(i - lo) + 1);
          Array.iteri
            (fun i c ->
              if n > 0 && c <> 1 then
                Alcotest.failf "index %d visited %d times (lo=%d hi=%d grain=%d)"
                  (i + lo) c lo hi grain)
            hits)
        [ (0, 1_000, 1); (13, 977, 7); (0, 5, 1_000); (0, 1, 1); (5, 5, 1); (9, 3, 1) ])
    [ Pool.Static; Pool.Guided ];
  (* ranges variant: chunks tile [lo, hi) without gap or overlap *)
  let seen = Array.make 500 0 in
  Pool.parallel_for_ranges ~chunking:Pool.Guided ~grain:16 pool 0 500
    (fun lo hi ->
      for i = lo to hi - 1 do
        seen.(i) <- seen.(i) + 1
      done);
  Alcotest.(check bool) "guided ranges tile exactly" true
    (Array.for_all (fun c -> c = 1) seen)

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
      Pool.parallel_for ~chunking:Pool.Guided pool 0 10_000 (fun i ->
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

let test_kernel_counters () =
  T.reset ();
  T.set_enabled true;
  Fun.protect ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
  @@ fun () ->
  let a = Nd.init_float [| 20; 20 |] (fun ix -> float_of_int ix.(0)) in
  ignore (Nd.matmul a a);
  (* 20*20*20 = 8000 >= block threshold -> blocked kernel *)
  Alcotest.(check (option int)) "matmul_blocked counted" (Some 1)
    (List.assoc_opt "kernel.matmul_blocked" (T.counters ()));
  Pool.with_pool 2 (fun pool -> Pool.parallel_for ~grain:8 pool 0 100 ignore);
  match List.assoc_opt "pool.chunks_dispatched" (T.counters ()) with
  | Some c when c >= 1 -> ()
  | v ->
      Alcotest.failf "pool.chunks_dispatched expected >= 1, got %s"
        (match v with None -> "none" | Some c -> string_of_int c)

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

let run_differential ?pool ~inputs ~outputs src =
  let dir = fresh_dir () in
  List.iter (fun (name, m) -> Interp.Eval.provide_input ~dir name m) inputs;
  Runtime.Rc.reset ();
  (match Driver.run ~dir ?pool ~config:(Driver.Pipeline.enable (Driver.default_config full) "auto-par" true) full src [] with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds ->
      Alcotest.failf "differential run failed: %s" (Driver.diags_to_string ds));
  let leaks = Runtime.Rc.live_count () in
  (List.map (fun name -> Interp.Eval.fetch_output ~dir name) outputs, leaks)

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
  Pool.with_pool 4 @@ fun pool ->
  List.iter
    (fun (label, src, inputs, outputs) ->
      let seq, leaks_seq = run_differential ~inputs ~outputs src in
      let par, leaks_par = run_differential ~pool ~inputs ~outputs src in
      List.iter2
        (fun a b ->
          Alcotest.check nd (label ^ ": pool output identical") a b)
        seq par;
      Alcotest.(check int) (label ^ ": no leaks (seq)") 0 leaks_seq;
      Alcotest.(check int) (label ^ ": no leaks (pool)") 0 leaks_par)
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
    match Driver.run ?pool ~config:(Driver.Pipeline.enable (Driver.default_config full) "auto-par" true) full src [] with
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
    Alcotest.test_case "blocked matmul vs oracle (random shapes)" `Quick
      test_matmul_oracle_random;
    Alcotest.test_case "matmul parallel row dispatch" `Quick
      test_matmul_parallel_dispatch;
    Alcotest.test_case "matmul error cases" `Quick test_matmul_errors;
    Alcotest.test_case "parallel elementwise bit-for-bit" `Quick
      test_elementwise_parity;
    Alcotest.test_case "elementwise error semantics" `Quick
      test_elementwise_errors;
    Alcotest.test_case "parallel reductions" `Quick test_reduction_parity;
    Alcotest.test_case "parallel_fold" `Quick test_parallel_fold;
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
