(* Additional whole-program coverage: interactions the focused suites do
   not reach — refcounting across early exits, nested with-loops as
   expressions, boolean-matrix logic, matrices through recursion, mask
   assignment forms, all extensions active in one program, and emission
   determinism. *)

module Nd = Runtime.Ndarray
module S = Runtime.Scalar

let all4 =
  Driver.compose
    [ Driver.matrix; Driver.transform; Driver.refptr; Driver.cilk ]

let fresh_dir () =
  let d = Filename.temp_file "mmprog" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let run_scalar ?pool src expect =
  Runtime.Rc.reset ();
  (match Driver.run ?pool all4 src [] with
  | Driver.Ok_ (Interp.Eval.VScal got) ->
      Alcotest.(check bool)
        (Printf.sprintf "result %s (got %s)" (S.to_string expect)
           (S.to_string got))
        true (S.equal got expect)
  | Driver.Ok_ v -> Alcotest.failf "non-scalar result %a" Interp.Eval.pp_value v
  | Driver.Failed ds -> Alcotest.failf "failed: %s" (Driver.diags_to_string ds));
  Alcotest.(check int) "no leaks" 0 (Runtime.Rc.live_count ())

(* --- refcounting across control flow ------------------------------------------ *)

let test_rc_early_return () =
  run_scalar
    {|
int f(int k) {
  Matrix int <1> v = init(Matrix int <1>, 100);
  if (k > 0) { return k; }
  Matrix int <1> w = init(Matrix int <1>, 50);
  return dimSize(w, 0);
}
int main() { return f(7) + f(-1); }
|}
    (S.I 57)

let test_rc_break_continue () =
  run_scalar
    {|
int main() {
  int acc = 0;
  for (int i = 0; i < 10; i++) {
    Matrix int <1> tmp = init(Matrix int <1>, 10);
    tmp[0] = i;
    if (i == 7) { break; }
    if (i % 2 == 0) { continue; }
    acc = acc + tmp[0];
  }
  return acc;
}
|}
    (S.I 9)

let test_rc_reassignment_chain () =
  run_scalar
    {|
int main() {
  Matrix int <1> a = init(Matrix int <1>, 4);
  Matrix int <1> b = a;
  a = init(Matrix int <1>, 8);
  b = a;
  a = b;
  return dimSize(a, 0) + dimSize(b, 0);
}
|}
    (S.I 16)

let test_rc_matrix_through_recursion () =
  run_scalar
    {|
int total(Matrix int <1> v, int i) {
  if (i >= dimSize(v, 0)) { return 0; }
  return v[i] + total(v, i + 1);
}
int main() {
  Matrix int <1> v = init(Matrix int <1>, 6);
  for (int i = 0; i < 6; i++) { v[i] = i * i; }
  return total(v, 0);
}
|}
    (S.I 55)

let test_rc_discarded_results () =
  run_scalar
    {|
Matrix int <1> make(int n) { return init(Matrix int <1>, n); }
int main() {
  make(100);
  make(200);
  Matrix int <1> kept = make(5);
  return dimSize(kept, 0);
}
|}
    (S.I 5)

(* --- matrix expression composition ---------------------------------------------- *)

let test_nested_with_loops () =
  (* a with-loop inside a with-loop body, both as expressions *)
  run_scalar
    {|
int main() {
  Matrix int <2> outer =
    with ([0,0] <= [i,j] < [3,3])
    genarray ([3,3],
      with ([0] <= [k] < [3]) fold (+, 0, i * 3 + j + k));
  return outer[2, 2];
}
|}
    (S.I 27)

let test_with_loop_over_expression_bounds () =
  run_scalar
    {|
int side() { return 4; }
int main() {
  int n = side();
  Matrix int <2> m =
    with ([0,0] <= [i,j] < [n,n]) genarray ([n,n], i + j);
  return with ([0,0] <= [i,j] < [n,n]) fold (max, -1, m[i,j]);
}
|}
    (S.I 6)

let test_bool_matrix_logic () =
  run_scalar
    {|
int main() {
  Matrix int <1> v = init(Matrix int <1>, 8);
  for (int i = 0; i < 8; i++) { v[i] = i; }
  Matrix bool <1> big = v >= 4;
  Matrix bool <1> even = v % 2 == 0;
  Matrix int <1> both = v[big && even];
  Matrix int <1> either = v[big || even];
  Matrix int <1> neither = v[!(big || even)];
  return dimSize(both, 0) * 100 + dimSize(either, 0) * 10 + dimSize(neither, 0);
}
|}
    (S.I 262)

let test_matrix_negation () =
  run_scalar
    {|
int main() {
  Matrix float <1> v = init(Matrix float <1>, 3);
  v[0] = 1.5;
  v[1] = -2.0;
  v[2] = 0.5;
  Matrix float <1> neg = -v;
  return (int)(neg[0] * 10.0) + (int)(neg[1] * 10.0);
}
|}
    (S.I 5)

let test_matmul_chain () =
  (* (A*B)*C with identity sanity *)
  run_scalar
    {|
int main() {
  Matrix int <2> a = init(Matrix int <2>, 2, 2);
  Matrix int <2> id = init(Matrix int <2>, 2, 2);
  a[0,0] = 1; a[0,1] = 2; a[1,0] = 3; a[1,1] = 4;
  id[0,0] = 1; id[1,1] = 1;
  Matrix int <2> b = a * id * a;
  return b[0,0] * 1000 + b[0,1] * 100 + b[1,0] * 10 + b[1,1];
}
|}
    (S.I ((7 * 1000) + (10 * 100) + (15 * 10) + 22))

let test_range_expression_arithmetic () =
  (* Fig 8's Line = (x1::x2) * m + b idiom with ints *)
  run_scalar
    {|
int main() {
  Matrix int <1> line = (2::5) * 10 + 1;
  return line[0] * 1000 + line[3];
}
|}
    (S.I ((21 * 1000) + 51))

let test_mask_fill_assignment () =
  run_scalar
    {|
int main() {
  Matrix int <1> v = init(Matrix int <1>, 6);
  for (int i = 0; i < 6; i++) { v[i] = i; }
  v[v % 2 == 0] = -1;
  int negs = with ([0] <= [i] < [6]) fold (+, 0, v[i]);
  return negs;
}
|}
    (S.I (1 + 3 + 5 - 3))

let test_whole_matrix_scalar_fill () =
  run_scalar
    {|
int main() {
  Matrix int <2> m = init(Matrix int <2>, 3, 3);
  m = 7;
  return with ([0,0] <= [i,j] < [3,3]) fold (+, 0, m[i,j]);
}
|}
    (S.I 63)

let test_gather_write_and_read () =
  run_scalar
    {|
int main() {
  Matrix int <1> v = init(Matrix int <1>, 10);
  for (int i = 0; i < 10; i++) { v[i] = i; }
  Matrix int <1> idx = 2::4;
  Matrix int <1> picked = v[idx];
  v[7::9] = picked;
  return v[7] * 100 + v[8] * 10 + v[9];
}
|}
    (S.I 234)

let test_end_arithmetic () =
  run_scalar
    {|
int main() {
  Matrix int <1> v = init(Matrix int <1>, 10);
  for (int i = 0; i < 10; i++) { v[i] = i * i; }
  return v[end] - v[end - 3];
}
|}
    (S.I (81 - 36))

(* --- cross-extension programs ------------------------------------------------------ *)

let test_all_extensions_in_one_program () =
  run_scalar
    {|
int rowTotal(Matrix int <2> m, int r) {
  int n = dimSize(m, 1);
  return with ([0] <= [j] < [n]) fold (+, 0, m[r, j]);
}
int main() {
  Matrix int <2> m = init(Matrix int <2>, 4, 8);
  m = with ([0,0] <= [i,j] < [4,8]) genarray([4,8], i * 8 + j)
    transform split j by 4, jin, jout. interchange i, jout;
  int a = 0;
  int b = 0;
  spawn a = rowTotal(m, 0);
  spawn b = rowTotal(m, 3);
  sync;
  (int, int) pair = (a, b);
  int x = 0;
  int y = 0;
  (x, y) = pair;
  return y - x;
}
|}
    (S.I (24 * 8))

let test_transform_on_genarray_then_fold () =
  Runtime.Pool.with_pool 2 (fun pool ->
      run_scalar ~pool
        {|
int main() {
  Matrix float <2> m = init(Matrix float <2>, 8, 8);
  m = with ([0,0] <= [i,j] < [8,8]) genarray([8,8], (float)(i * 8 + j))
    transform tile i, j by 4. parallelize iout;
  float total = with ([0,0] <= [i,j] < [8,8]) fold (+, 0f, m[i,j]);
  return (int) total;
}
|}
        (S.I (63 * 64 / 2)))

(* --- emission determinism and structure ---------------------------------------------- *)

let test_emission_deterministic () =
  let emit () =
    match Driver.compile_to_c all4 Eddy.Programs.fig8_scoring with
    | Driver.Ok_ t -> t
    | Driver.Failed ds ->
        Alcotest.failf "emit failed: %s" (Driver.diags_to_string ds)
  in
  Alcotest.(check string) "same source, same C" (emit ()) (emit ())

let test_all_paper_programs_emit () =
  List.iter
    (fun (name, src) ->
      match Driver.compile_to_c all4 src with
      | Driver.Ok_ text ->
          Alcotest.(check bool)
            (Printf.sprintf "%s emits nonempty C" name)
            true
            (String.length text > 200)
      | Driver.Failed ds ->
          Alcotest.failf "%s: %s" name (Driver.diags_to_string ds))
    [
      ("fig1", Eddy.Programs.fig1_temporal_mean);
      ("fig4", Eddy.Programs.fig4_conncomp);
      ("fig8", Eddy.Programs.fig8_scoring);
      ("fig9", Eddy.Programs.fig9_transformed);
      ("fig1_slice", Eddy.Programs.fig1_with_slice_copy);
    ]

(* QCheck: random small int with-loop kernels evaluated against an OCaml
   oracle built from the same parameters. *)
let prop_random_genarray_fold =
  QCheck.Test.make ~name:"random genarray+fold programs match oracle"
    ~count:40
    QCheck.(
      make
        Gen.(
          let* m = 1 -- 5 and* n = 1 -- 5 in
          let* a = 0 -- 9 and* b = 0 -- 9 and* c0 = 0 -- 9 in
          return (m, n, a, b, c0)))
    (fun (m, n, a, b, c0) ->
      let src =
        Printf.sprintf
          {|
int main() {
  Matrix int <2> g =
    with ([0,0] <= [i,j] < [%d,%d])
    genarray([%d,%d], %d * i + %d * j + %d);
  return with ([0,0] <= [i,j] < [%d,%d]) fold (+, 0, g[i,j]);
}
|}
          m n m n a b c0 m n
      in
      let expect = ref 0 in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          expect := !expect + (a * i) + (b * j) + c0
        done
      done;
      match Driver.run all4 src [] with
      | Driver.Ok_ (Interp.Eval.VScal (S.I got)) -> got = !expect
      | _ -> false)

(* The interpreter keeps scalars unboxed: int, bool and float locals
   live in unboxed frame arrays, and scalar closures return OCaml ints,
   floats and bools.  Run at one domain, eddy_energy allocates about
   4.5 M minor-heap words that way and 16.4 M with every scalar boxed.
   Allocation on one domain is deterministic, so the bound between the
   two fails the suite, without timing anything, if scalars are boxed
   again. *)
let test_unboxed_scalars () =
  let src =
    In_channel.with_open_text "../examples/eddy_energy.mc" In_channel.input_all
  in
  let prog =
    match Driver.frontend all4 src with
    | Driver.Failed ds -> Alcotest.failf "frontend: %s" (Driver.diags_to_string ds)
    | Driver.Ok_ ast -> (
        match Driver.lower all4 ast with
        | Driver.Ok_ prog -> prog
        | Driver.Failed ds -> Alcotest.failf "lower: %s" (Driver.diags_to_string ds))
  in
  let before = Gc.minor_words () in
  let v = Interp.Eval.run prog [] in
  let words = Gc.minor_words () -. before in
  (match v with
  | Interp.Eval.VScal (S.I 1308) -> ()
  | v -> Alcotest.failf "eddy_energy returned %a" Interp.Eval.pp_value v);
  if words >= 8e6 then
    Alcotest.failf "eddy_energy allocated %.0f minor words, 8 M or more" words

let suite =
  [
    Alcotest.test_case "rc: early return" `Quick test_rc_early_return;
    Alcotest.test_case "rc: break/continue" `Quick test_rc_break_continue;
    Alcotest.test_case "rc: reassignment chains" `Quick
      test_rc_reassignment_chain;
    Alcotest.test_case "rc: matrices through recursion" `Quick
      test_rc_matrix_through_recursion;
    Alcotest.test_case "rc: discarded results" `Quick test_rc_discarded_results;
    Alcotest.test_case "nested with-loops" `Quick test_nested_with_loops;
    Alcotest.test_case "with-loop over computed bounds" `Quick
      test_with_loop_over_expression_bounds;
    Alcotest.test_case "boolean-matrix logic + masks" `Quick
      test_bool_matrix_logic;
    Alcotest.test_case "matrix negation" `Quick test_matrix_negation;
    Alcotest.test_case "matmul chain" `Quick test_matmul_chain;
    Alcotest.test_case "range arithmetic (Fig 8 Line)" `Quick
      test_range_expression_arithmetic;
    Alcotest.test_case "mask fill assignment" `Quick test_mask_fill_assignment;
    Alcotest.test_case "whole-matrix scalar fill" `Quick
      test_whole_matrix_scalar_fill;
    Alcotest.test_case "gather read + range write" `Quick
      test_gather_write_and_read;
    Alcotest.test_case "end arithmetic" `Quick test_end_arithmetic;
    Alcotest.test_case "all four extensions in one program" `Quick
      test_all_extensions_in_one_program;
    Alcotest.test_case "transform + parallelize tile" `Quick
      test_transform_on_genarray_then_fold;
    Alcotest.test_case "emission is deterministic" `Quick
      test_emission_deterministic;
    Alcotest.test_case "all paper programs emit C" `Quick
      test_all_paper_programs_emit;
    QCheck_alcotest.to_alcotest prop_random_genarray_fold;
    Alcotest.test_case "eddy_energy allocates under 8 M minor words" `Quick
      test_unboxed_scalars;
  ]

let _ = fresh_dir
