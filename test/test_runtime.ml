(* Runtime substrate: shapes, ndarrays and their matrix files, every
   §III-A2/A3 operation and indexing mode as the translator runs it,
   refcounting invariants, the enhanced fork-join pool, simulated SSE. *)

open Runtime

let sc = Alcotest.testable Scalar.pp Scalar.equal
let nd = Alcotest.testable Ndarray.pp Ndarray.equal

(* --- shape ---------------------------------------------------------------- *)

let test_shape_basics () =
  let s = [| 3; 4; 5 |] in
  Alcotest.(check int) "rank" 3 (Shape.rank s);
  Alcotest.(check int) "size" 60 (Shape.size s);
  Alcotest.(check (array int)) "strides" [| 20; 5; 1 |] (Shape.strides s);
  Alcotest.(check int) "offset" ((2 * 20) + (3 * 5) + 4)
    (Shape.offset s [| 2; 3; 4 |]);
  Alcotest.(check (array int)) "unoffset" [| 2; 3; 4 |] (Shape.unoffset s 59);
  Alcotest.check_raises "oob"
    (Shape.Shape_error "index 4 out of bounds for dimension 1 of [3x4x5]")
    (fun () -> ignore (Shape.offset s [| 0; 4; 0 |]))

let prop_offset_unoffset =
  QCheck.Test.make ~name:"unoffset inverts offset" ~count:200
    QCheck.(
      make
        Gen.(
          let* dims = list_size (1 -- 4) (1 -- 6) in
          let sh = Array.of_list dims in
          let* off = 0 -- (max 0 (Shape.size sh - 1)) in
          return (sh, off)))
    (fun (sh, off) -> Shape.offset sh (Shape.unoffset sh off) = off)

(* Flat offsets enumerate multi-indices in row-major order: the order
   [Ndarray.init_*] visits them in. *)
let test_shape_iter_order () =
  let s = [| 2; 3 |] in
  let seen = List.init (Shape.size s) (Shape.unoffset s) in
  Alcotest.(check int) "count" 6 (List.length seen);
  Alcotest.(check (array int)) "first row-major" [| 0; 0 |] (List.nth seen 0);
  Alcotest.(check (array int)) "second row-major" [| 0; 1 |] (List.nth seen 1);
  Alcotest.(check (array int)) "last" [| 1; 2 |] (List.nth seen 5)

(* --- matrix operations and indexing, through the translator --------------- *)

(* The matrix extension lowers every operation and indexing mode of
   §III-A2/A3 to loops over flat buffers, so these cases run programs:
   [run_prog src] runs [src] on the interpreter with [inputs] in a fresh
   data directory and returns its value and the matrices it wrote to
   [outputs]; no allocation may outlive the run. *)
let matrix = Driver.compose [ Driver.matrix; Driver.transform; Driver.refptr ]

let run_prog ?(inputs = []) ?(outputs = []) src =
  let dir = Filename.temp_file "mmrt" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  List.iter (fun (name, m) -> Interp.Eval.provide_input ~dir name m) inputs;
  Rc.reset ();
  match Driver.run ~dir matrix src [] with
  | Driver.Failed ds ->
      Alcotest.failf "program failed: %s" (Driver.diags_to_string ds)
  | Driver.Ok_ v ->
      Alcotest.(check int) "no allocation outlives the run" 0 (Rc.live_count ());
      (v, List.map (Interp.Eval.fetch_output ~dir) outputs)

(* [src] must fail with a diagnostic containing [expected]. *)
let check_fails ~expected src =
  match Driver.run matrix src [] with
  | Driver.Ok_ v -> Alcotest.failf "expected %S, got %a" expected Interp.Eval.pp_value v
  | Driver.Failed ds ->
      let text = Driver.diags_to_string ds in
      let n = String.length expected in
      let rec has i =
        i + n <= String.length text && (String.sub text i n = expected || has (i + 1))
      in
      Alcotest.(check bool) (Printf.sprintf "%S in: %s" expected text) true (has 0)

let m23 = Ndarray.of_float_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |]

let test_elementwise () =
  let b = Ndarray.of_float_array [| 2; 3 |] [| 10.; 20.; 30.; 40.; 50.; 60. |] in
  let _, outs =
    run_prog
      ~inputs:[ ("m.data", m23); ("b.data", b) ]
      ~outputs:[ "sum.data"; "prod.data"; "plus2.data"; "two_minus.data" ]
      {|
int main() {
  Matrix float <2> m = readMatrix("m.data");
  Matrix float <2> b = readMatrix("b.data");
  Matrix float <2> sum = m + b;
  Matrix float <2> prod = m .* m;
  Matrix float <2> plus2 = m + 2.0;
  Matrix float <2> two_minus = 2.0 - m;
  writeMatrix("sum.data", sum);
  writeMatrix("prod.data", prod);
  writeMatrix("plus2.data", plus2);
  writeMatrix("two_minus.data", two_minus);
  return 0;
}
|}
  in
  match outs with
  | [ sum; prod; plus2; two_minus ] ->
      Alcotest.check nd "a+b"
        (Ndarray.of_float_array [| 2; 3 |] [| 11.; 22.; 33.; 44.; 55.; 66. |])
        sum;
      Alcotest.check nd "elementwise .*"
        (Ndarray.of_float_array [| 2; 3 |] [| 1.; 4.; 9.; 16.; 25.; 36. |])
        prod;
      (* matrix-scalar, both orders *)
      Alcotest.check sc "m+2 elem" (Scalar.F 8.) (Ndarray.get plus2 [| 1; 2 |]);
      Alcotest.check sc "2-m elem" (Scalar.F (-4.))
        (Ndarray.get two_minus [| 1; 2 |])
  | _ -> assert false

let test_elementwise_errors () =
  check_fails ~expected:"+ requires matrices of the same type and rank"
    {|
int main() {
  Matrix float <2> a = with ([0,0] <= [i,j] < [2,3]) genarray([2,3], 1.0);
  Matrix float <1> v = with ([0] <= [i] < [3]) genarray([3], 1.0);
  Matrix float <2> c = a + v;
  return 0;
}
|};
  check_fails ~expected:"+ requires matrices of the same type and rank"
    {|
int main() {
  Matrix float <2> a = with ([0,0] <= [i,j] < [2,3]) genarray([2,3], 1.0);
  Matrix int <2> b = with ([0,0] <= [i,j] < [2,3]) genarray([2,3], 1);
  Matrix float <2> c = a + b;
  return 0;
}
|};
  check_fails ~expected:"arithmetic on boolean matrices"
    {|
int main() {
  Matrix bool <1> m = with ([0] <= [i] < [2]) genarray([2], i > 0);
  Matrix bool <1> n = m + m;
  return 0;
}
|}

let test_cmp_and_logic () =
  let _, outs =
    run_prog ~inputs:[ ("m.data", m23) ]
      ~outputs:[ "mask.data"; "nmask.data"; "both.data" ]
      {|
int main() {
  Matrix float <2> m = readMatrix("m.data");
  Matrix bool <2> mask = m > 3.5;
  Matrix bool <2> nmask = !mask;
  Matrix bool <2> both = mask && nmask;
  writeMatrix("mask.data", mask);
  writeMatrix("nmask.data", nmask);
  writeMatrix("both.data", both);
  return 0;
}
|}
  in
  let bools l = Ndarray.of_bool_array [| 2; 3 |] (Array.of_list l) in
  match outs with
  | [ mask; nmask; both ] ->
      Alcotest.check nd "m > 3.5" (bools [ false; false; false; true; true; true ]) mask;
      Alcotest.check nd "negated" (bools [ true; true; true; false; false; false ]) nmask;
      Alcotest.check nd "x && !x" (bools [ false; false; false; false; false; false ]) both
  | _ -> assert false

let matmul_src =
  {|
int main() {
  Matrix float <2> a = readMatrix("a.data");
  Matrix float <2> b = readMatrix("b.data");
  Matrix float <2> c = a * b;
  writeMatrix("c.data", c);
  return 0;
}
|}

let test_matmul () =
  let b = Ndarray.of_float_array [| 3; 2 |] [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  let _, outs =
    run_prog ~inputs:[ ("a.data", m23); ("b.data", b) ] ~outputs:[ "c.data" ]
      matmul_src
  in
  Alcotest.check nd "2x3 * 3x2"
    (Ndarray.of_float_array [| 2; 2 |] [| 58.; 64.; 139.; 154. |])
    (List.hd outs);
  (* disagreeing inner dimensions fail the product's check *)
  check_fails
    ~expected:"inner dimensions of the matrix product disagree: 3 against 2"
    {|
int main() {
  Matrix float <2> a = with ([0,0] <= [i,j] < [2,3]) genarray([2,3], 1.0);
  Matrix float <2> c = a * a;
  return 0;
}
|}

let prop_matmul_oracle =
  QCheck.Test.make ~name:"matmul equals naive triple loop" ~count:50
    QCheck.(
      make
        Gen.(
          let* m = 1 -- 5 and* k = 1 -- 5 and* n = 1 -- 5 in
          let* xs = array_size (return (m * k)) (float_bound_inclusive 10.) in
          let* ys = array_size (return (k * n)) (float_bound_inclusive 10.) in
          return (m, k, n, xs, ys)))
    (fun (m, k, n, xs, ys) ->
      let a = Ndarray.of_float_array [| m; k |] xs in
      let b = Ndarray.of_float_array [| k; n |] ys in
      let c =
        List.hd
          (snd
             (run_prog ~inputs:[ ("a.data", a); ("b.data", b) ]
                ~outputs:[ "c.data" ] matmul_src))
      in
      let ok = ref (Ndarray.shape c = [| m; n |]) in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let expect = ref 0. in
          for l = 0 to k - 1 do
            expect := !expect +. (xs.((i * k) + l) *. ys.((l * n) + j))
          done;
          let got = Scalar.to_float (Ndarray.get c [| i; j |]) in
          if abs_float (got -. !expect) > 1e-9 then ok := false
        done
      done;
      !ok)

(* --- indexing (§III-A3 modes a-d) -------------------------------------------- *)

let cube =
  (* 3x4x5 cube with value 100i + 10j + k at [i,j,k] *)
  Ndarray.init_float [| 3; 4; 5 |] (fun idx ->
      float_of_int ((100 * idx.(0)) + (10 * idx.(1)) + idx.(2)))

let test_index_standard () =
  (* (a) standard indexing extracts a single element *)
  let v, _ =
    run_prog ~inputs:[ ("cube.data", cube) ]
      {|
float main() {
  Matrix float <3> cube = readMatrix("cube.data");
  return cube[2, 3, 1];
}
|}
  in
  match v with
  | Interp.Eval.VScal x -> Alcotest.check sc "value" (Scalar.F 231.) x
  | v -> Alcotest.failf "got %a" Interp.Eval.pp_value v

let test_index_range () =
  (* (b) data[0::4, end-4::end, 0::4] on a bigger cube returns 5x5x5 *)
  let big =
    Ndarray.init_float [| 10; 10; 10 |] (fun i ->
        float_of_int ((100 * i.(0)) + (10 * i.(1)) + i.(2)))
  in
  let _, outs =
    run_prog ~inputs:[ ("big.data", big) ] ~outputs:[ "s.data" ]
      {|
int main() {
  Matrix float <3> big = readMatrix("big.data");
  Matrix float <3> s = big[0::4, end - 4::end, 0::4];
  writeMatrix("s.data", s);
  return 0;
}
|}
  in
  let s = List.hd outs in
  Alcotest.(check (array int)) "shape 5x5x5" [| 5; 5; 5 |] (Ndarray.shape s);
  Alcotest.check sc "corner" (Scalar.F 50.) (Ndarray.get s [| 0; 0; 0 |]);
  Alcotest.check sc "other corner" (Scalar.F 494.) (Ndarray.get s [| 4; 4; 4 |])

let test_index_whole_dim () =
  (* (c) data[0, end, :] returns a vector of size dimSize(data,2) *)
  let _, outs =
    run_prog ~inputs:[ ("cube.data", cube) ] ~outputs:[ "v.data" ]
      {|
int main() {
  Matrix float <3> cube = readMatrix("cube.data");
  Matrix float <1> v = cube[0, end, :];
  writeMatrix("v.data", v);
  return 0;
}
|}
  in
  Alcotest.check nd "values"
    (Ndarray.of_float_array [| 5 |] [| 30.; 31.; 32.; 33.; 34. |])
    (List.hd outs)

let test_index_logical () =
  (* (d) logical indexing by a boolean vector, alone and on one dimension
     of a matrix: data[v % 2 == 1, :] *)
  let _, outs =
    run_prog ~outputs:[ "odd.data"; "rows.data" ]
      {|
int main() {
  Matrix int <1> v = with ([0] <= [i] < [6]) genarray([6], i + 1);
  Matrix int <2> mat = with ([0,0] <= [i,j] < [6,3]) genarray([6,3], 10 * i + j);
  Matrix int <1> odd = v[v % 2 == 1];
  Matrix int <2> rows = mat[v % 2 == 1, :];
  writeMatrix("odd.data", odd);
  writeMatrix("rows.data", rows);
  return 0;
}
|}
  in
  match outs with
  | [ odd; rows ] ->
      Alcotest.check nd "odd elements" (Ndarray.vec_i [ 1; 3; 5 ]) odd;
      Alcotest.(check (array int)) "3x3" [| 3; 3 |] (Ndarray.shape rows);
      Alcotest.check sc "row pick" (Scalar.I 41) (Ndarray.get rows [| 2; 1 |])
  | _ -> assert false

let test_index_gather () =
  let _, outs =
    run_prog ~outputs:[ "g.data" ]
      {|
int main() {
  Matrix float <1> v = with ([0] <= [i] < [6]) genarray([6], 10.0 + (float)i);
  Matrix int <1> idx = with ([0] <= [i] < [3]) genarray([3], 4 - 4 * (i % 2));
  Matrix float <1> g = v[idx];
  writeMatrix("g.data", g);
  return 0;
}
|}
  in
  Alcotest.check nd "gather dup ok"
    (Ndarray.of_float_array [| 3 |] [| 14.; 10.; 14. |])
    (List.hd outs);
  check_fails ~expected:"index 6 out of bounds for dimension 0 of extent 6"
    {|
int main() {
  Matrix float <1> v = with ([0] <= [i] < [6]) genarray([6], 1.0);
  Matrix int <1> idx = with ([0] <= [i] < [1]) genarray([1], 6);
  Matrix float <1> g = v[idx];
  return 0;
}
|}

let test_index_mixed () =
  (* combinations across dimensions, rank collapse only on single indices *)
  let _, outs =
    run_prog ~inputs:[ ("cube.data", cube) ] ~outputs:[ "s.data" ]
      {|
int main() {
  Matrix float <3> cube = readMatrix("cube.data");
  Matrix int <1> k = with ([0] <= [i] < [5]) genarray([5], i);
  Matrix float <2> s = cube[1, 1::2, k % 4 == 0];
  writeMatrix("s.data", s);
  return 0;
}
|}
  in
  let s = List.hd outs in
  Alcotest.(check (array int)) "shape 2x2" [| 2; 2 |] (Ndarray.shape s);
  Alcotest.check sc "[1,1,0]" (Scalar.F 110.) (Ndarray.get s [| 0; 0 |]);
  Alcotest.check sc "[1,2,4]" (Scalar.F 124.) (Ndarray.get s [| 1; 1 |])

let test_slice_assign () =
  let _, outs =
    run_prog ~outputs:[ "m.data"; "range.data"; "fill.data" ]
      {|
int main() {
  Matrix float <2> m = init(Matrix float <2>, 4, 4);
  Matrix float <2> sub = with ([0,0] <= [i,j] < [2,2]) genarray([2,2], (float)(2 * i + j + 1));
  m[1::2, 1::2] = sub;
  writeMatrix("m.data", m);
  /* scoreTS-style write-back: scores[beginning::i] = computed */
  Matrix float <1> scores = init(Matrix float <1>, 6);
  Matrix float <1> computed = with ([0] <= [i] < [3]) genarray([3], 7.0 + (float)i);
  scores[2::4] = computed;
  writeMatrix("range.data", scores);
  scores[scores == 0.0] = -1.0;
  writeMatrix("fill.data", scores);
  return 0;
}
|}
  in
  (match outs with
  | [ m; range; fill ] ->
      Alcotest.check sc "written" (Scalar.F 4.) (Ndarray.get m [| 2; 2 |]);
      Alcotest.check sc "untouched" (Scalar.F 0.) (Ndarray.get m [| 0; 0 |]);
      Alcotest.check nd "range write"
        (Ndarray.of_float_array [| 6 |] [| 0.; 0.; 7.; 8.; 9.; 0. |])
        range;
      Alcotest.check nd "mask fill"
        (Ndarray.of_float_array [| 6 |] [| -1.; -1.; 7.; 8.; 9.; -1. |])
        fill
  | _ -> assert false);
  (* a 2-element source into a 3-element region fails the fit check *)
  check_fails
    ~expected:
      "assigned matrix disagrees with the selected region in dimension 0: 2 \
       against 3"
    {|
int main() {
  Matrix float <1> scores = init(Matrix float <1>, 6);
  Matrix float <1> two = with ([0] <= [i] < [2]) genarray([2], 1.0);
  scores[0::2] = two;
  return 0;
}
|}

(* Bounds for two-step and one-step range slicing of a vector 0..n-1:
   [v[lo1::hi1][lo2::hi2]] equals [v[lo1+lo2 :: lo1+hi2]]. *)
let slice_twice_src =
  {|
int main() {
  Matrix int <1> p = readMatrix("p.data");
  Matrix float <1> v = with ([0] <= [i] < [p[0]]) genarray([p[0]], (float)i);
  Matrix float <1> s1 = v[p[1]::p[2]];
  Matrix float <1> a = s1[p[3]::p[4]];
  Matrix float <1> b = v[p[1] + p[3] :: p[1] + p[4]];
  writeMatrix("a.data", a);
  writeMatrix("b.data", b);
  return 0;
}
|}

let prop_slice_of_slice =
  (* slicing twice with ranges composes like slicing once *)
  QCheck.Test.make ~name:"range slice composition" ~count:100
    QCheck.(
      make
        Gen.(
          let* n = 4 -- 12 in
          let* lo1 = 0 -- (n - 2) in
          let* hi1 = lo1 -- (n - 1) in
          let w = hi1 - lo1 + 1 in
          let* lo2 = 0 -- (w - 1) in
          let* hi2 = lo2 -- (w - 1) in
          return (n, lo1, hi1, lo2, hi2)))
    (fun (n, lo1, hi1, lo2, hi2) ->
      match
        run_prog
          ~inputs:[ ("p.data", Ndarray.vec_i [ n; lo1; hi1; lo2; hi2 ]) ]
          ~outputs:[ "a.data"; "b.data" ] slice_twice_src
      with
      | _, [ a; b ] -> Ndarray.equal a b
      | _ -> false)

let prop_mask_popcount =
  QCheck.Test.make ~name:"mask slice length = popcount" ~count:100
    QCheck.(make Gen.(list_size (1 -- 20) bool))
    (fun bools ->
      let n = List.length bools in
      let mask = Ndarray.of_bool_array [| n |] (Array.of_list bools) in
      match
        run_prog ~inputs:[ ("mask.data", mask) ]
          {|
int main() {
  Matrix bool <1> mask = readMatrix("mask.data");
  int n = dimSize(mask, 0);
  Matrix float <1> v = with ([0] <= [i] < [n]) genarray([n], (float)i);
  Matrix float <1> s = v[mask];
  return dimSize(s, 0);
}
|}
      with
      | Interp.Eval.VScal (Scalar.I k), _ ->
          k = List.length (List.filter Fun.id bools)
      | _ -> false)

let test_range_construction () =
  let _, outs =
    run_prog ~outputs:[ "r.data"; "e.data" ]
      {|
int main() {
  Matrix int <1> r = 3::6;
  Matrix int <1> e = 5::2;
  writeMatrix("r.data", r);
  writeMatrix("e.data", e);
  return 0;
}
|}
  in
  match outs with
  | [ r; e ] ->
      Alcotest.check nd "x1::x2" (Ndarray.vec_i [ 3; 4; 5; 6 ]) r;
      Alcotest.(check (array int)) "empty when hi<lo" [| 0 |] (Ndarray.shape e)
  | _ -> assert false

let test_io_roundtrip () =
  let file = Filename.temp_file "mmc" ".mat" in
  Ndarray.write_file file cube;
  let back = Ndarray.read_file file in
  Sys.remove file;
  Alcotest.check nd "float roundtrip" cube back;
  let file = Filename.temp_file "mmc" ".mat" in
  let ints = Ndarray.init_int [| 3; 3 |] (fun i -> i.(0) - i.(1)) in
  Ndarray.write_file file ints;
  let back = Ndarray.read_file file in
  Sys.remove file;
  Alcotest.check nd "int roundtrip" ints back

(* The MMAT2 writer as a plain per-element loop: the reference the
   chunked encoder in [Ndarray.write_file] must match byte for byte. *)
let reference_mmat2 (m : Ndarray.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b "MMAT2\n";
  Buffer.add_char b
    (match Ndarray.elem m with EFloat -> 'f' | EInt -> 'i' | EBool -> 'b');
  let be32 n = Buffer.add_int32_be b (Int32.of_int n) in
  be32 (Ndarray.rank m);
  Array.iter be32 (Ndarray.shape m);
  (match m.buf with
  | F a -> Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) a
  | I a -> Array.iter (fun v -> Buffer.add_int64_le b (Int64.of_int v)) a
  | B a -> Array.iter (fun v -> Buffer.add_uint8 b (if v then 1 else 0)) a);
  Buffer.contents b

(* Float bit patterns an encoder can get wrong: ±0, ±inf, NaN payloads,
   subnormals, the int64 extremes and the int-range edges. *)
let edge_bits =
  [
    0L; Int64.min_int (* -0.0 *); Int64.max_int (* NaN, all payload bits *);
    0x7FF0000000000000L; 0xFFF0000000000000L; 0x7FF8000000000000L;
    0x7FF0000000000001L; 0xFFF8DEADBEEF0001L; 1L; 0x000FFFFFFFFFFFFFL;
    0x800FFFFFFFFFFFFFL; 0x3FF0000000000000L; -1L;
    Int64.of_int max_int; Int64.of_int min_int;
    Int64.succ (Int64.of_int max_int); Int64.pred (Int64.of_int min_int);
    1000000000000000000L; -999999999999999999L;
  ]

let edge_ints = [ 0; 1; -1; 9; 10; -10; 99; 100; max_int; min_int ]

let gen_matrix =
  QCheck.Gen.(
    let* rank = 1 -- 3 in
    let* sh = array_repeat rank (0 -- 5) in
    let n = Shape.size sh in
    oneof
      [
        map
          (fun a -> Ndarray.of_float_array sh (Array.map Int64.float_of_bits a))
          (array_repeat n (frequency [ (1, oneofl edge_bits); (2, ui64) ]));
        map (Ndarray.of_int_array sh)
          (array_repeat n (frequency [ (1, oneofl edge_ints); (2, int) ]));
        map (Ndarray.of_bool_array sh) (array_repeat n bool);
      ])

let prop_mmat2_bytes =
  QCheck.Test.make ~name:"matrix files: reference bytes, bit-exact reads"
    ~count:200
    (QCheck.make ~print:Ndarray.to_string gen_matrix)
    (fun m ->
      let file = Filename.temp_file "mmc" ".mat" in
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () ->
          Ndarray.write_file file m;
          let bytes = In_channel.with_open_bin file In_channel.input_all in
          if bytes <> reference_mmat2 m then
            QCheck.Test.fail_report "write_file differs from the reference";
          let back = Ndarray.read_file file in
          Shape.equal (Ndarray.shape back) (Ndarray.shape m)
          &&
          match (back.buf, m.buf) with
          | F x, F y ->
              Array.for_all2
                (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
                x y
          | I x, I y -> x = y
          | B x, B y -> x = y
          | _ -> false))

(* --- refcounting ----------------------------------------------------------- *)

let test_rc_lifecycle () =
  Rc.reset ();
  let c = Rc.alloc ~bytes:64 "payload" in
  Alcotest.(check int) "live after alloc" 1 (Rc.live_count ());
  Alcotest.(check string) "deref" "payload" (Rc.get c);
  Rc.incr_ c;
  Rc.decr_ c;
  Alcotest.(check bool) "still live" true (Rc.is_live c);
  Rc.decr_ c;
  Alcotest.(check bool) "freed at zero" false (Rc.is_live c);
  Alcotest.(check int) "registry empty" 0 (Rc.live_count ());
  Alcotest.check_raises "use after free" (Rc.Use_after_free c.Rc.id) (fun () ->
      ignore (Rc.get c));
  Alcotest.check_raises "double free" (Rc.Double_free c.Rc.id) (fun () ->
      Rc.decr_ c)

let prop_rc_scripts =
  (* Random inc/dec scripts that never exceed the known count cannot
     double-free, and cells freed exactly once leave no residue. *)
  QCheck.Test.make ~name:"rc scripts balance" ~count:100
    QCheck.(make Gen.(list_size (1 -- 30) (0 -- 2)))
    (fun script ->
      Rc.reset ();
      let c = Rc.alloc 0 in
      let count = ref 1 in
      List.iter
        (fun op ->
          if !count > 0 then
            match op with
            | 0 | 1 ->
                Rc.incr_ c;
                incr count
            | _ ->
                Rc.decr_ c;
                decr count)
        script;
      while !count > 0 do
        Rc.decr_ c;
        decr count
      done;
      (not (Rc.is_live c)) && Rc.live_count () = 0)

(* --- pool -------------------------------------------------------------------- *)

let test_pool_parallel_for () =
  Pool.with_pool 4 (fun pool ->
      let n = 10_000 in
      let a = Array.make n 0 in
      Pool.parallel_for pool 0 n (fun i -> a.(i) <- i * 2);
      let expect = Array.init n (fun i -> i * 2) in
      Alcotest.(check bool) "all indices written once" true (a = expect))

let test_pool_reuse () =
  (* The enhanced fork-join model's whole point: many regions, same threads. *)
  Pool.with_pool 4 (fun pool ->
      let acc = Atomic.make 0 in
      for _ = 1 to 200 do
        Pool.parallel_for pool 0 64 (fun _ -> Atomic.incr acc)
      done;
      Alcotest.(check int) "200 small regions" (200 * 64) (Atomic.get acc))

let test_pool_single_thread () =
  Pool.with_pool 1 (fun pool ->
      let hits = ref 0 in
      Pool.parallel_for pool 0 10 (fun _ -> incr hits);
      Alcotest.(check int) "degenerate pool runs inline" 10 !hits)

let test_naive_forkjoin () =
  let a = Array.make 1000 0 in
  Pool.naive_parallel_for 3 0 1000 (fun i -> a.(i) <- i);
  Alcotest.(check bool) "naive covers range" true
    (a = Array.init 1000 Fun.id)

let prop_pool_matches_serial =
  QCheck.Test.make ~name:"parallel_for = serial for any size/threads" ~count:20
    QCheck.(make Gen.(pair (1 -- 4) (0 -- 500)))
    (fun (threads, n) ->
      Pool.with_pool threads (fun pool ->
          let a = Array.make (max n 1) 0 in
          Pool.parallel_for pool 0 n (fun i -> a.(i) <- i + 1);
          let ok = ref true in
          for i = 0 to n - 1 do
            if a.(i) <> i + 1 then ok := false
          done;
          !ok))

(* --- simd ---------------------------------------------------------------------- *)

let test_simd_ops () =
  let a = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |] in
  let v = Simd.load a 2 ~width:4 in
  Alcotest.(check int) "width" 4 (Simd.width v);
  Alcotest.(check (float 0.)) "lane" 5. (Simd.lane v 2);
  let s = Simd.splat 10. ~width:4 in
  let r = Simd.add v s in
  let out = Array.make 8 0. in
  Simd.store out 0 r;
  Alcotest.(check (float 0.)) "stored" 13. out.(0);
  Alcotest.(check (float 0.)) "stored last" 16. out.(3);
  Alcotest.(check (float 1e-6)) "hsum" 58. (Simd.hsum r)

let prop_simd_equals_scalar =
  QCheck.Test.make ~name:"vector ops equal scalar loops (f32)" ~count:100
    QCheck.(
      make
        Gen.(
          pair
            (array_size (return 4) (float_bound_inclusive 100.))
            (array_size (return 4) (float_bound_inclusive 100.))))
    (fun (x, y) ->
      let vx = Simd.load x 0 ~width:4 and vy = Simd.load y 0 ~width:4 in
      let check op fop =
        let v = op vx vy in
        Array.for_all Fun.id
          (Array.init 4 (fun k ->
               Simd.lane v k = Simd.to_f32 (fop (Simd.to_f32 x.(k)) (Simd.to_f32 y.(k)))))
      in
      check Simd.add ( +. ) && check Simd.sub ( -. ) && check Simd.mul ( *. ))

let suite =
  [
    Alcotest.test_case "shape basics" `Quick test_shape_basics;
    QCheck_alcotest.to_alcotest prop_offset_unoffset;
    Alcotest.test_case "shape iter order" `Quick test_shape_iter_order;
    Alcotest.test_case "elementwise" `Quick test_elementwise;
    Alcotest.test_case "elementwise errors" `Quick test_elementwise_errors;
    Alcotest.test_case "compare and logic" `Quick test_cmp_and_logic;
    Alcotest.test_case "matmul" `Quick test_matmul;
    QCheck_alcotest.to_alcotest prop_matmul_oracle;
    Alcotest.test_case "index: standard" `Quick test_index_standard;
    Alcotest.test_case "index: range" `Quick test_index_range;
    Alcotest.test_case "index: whole dim" `Quick test_index_whole_dim;
    Alcotest.test_case "index: logical" `Quick test_index_logical;
    Alcotest.test_case "index: gather" `Quick test_index_gather;
    Alcotest.test_case "index: mixed" `Quick test_index_mixed;
    Alcotest.test_case "slice assignment" `Quick test_slice_assign;
    QCheck_alcotest.to_alcotest prop_slice_of_slice;
    QCheck_alcotest.to_alcotest prop_mask_popcount;
    Alcotest.test_case "range construction" `Quick test_range_construction;
    Alcotest.test_case "matrix file IO" `Quick test_io_roundtrip;
    Alcotest.test_case "rc lifecycle" `Quick test_rc_lifecycle;
    QCheck_alcotest.to_alcotest prop_rc_scripts;
    Alcotest.test_case "pool parallel_for" `Quick test_pool_parallel_for;
    Alcotest.test_case "pool region reuse" `Quick test_pool_reuse;
    Alcotest.test_case "pool single thread" `Quick test_pool_single_thread;
    Alcotest.test_case "naive fork-join" `Quick test_naive_forkjoin;
    QCheck_alcotest.to_alcotest prop_pool_matches_serial;
    Alcotest.test_case "simd ops" `Quick test_simd_ops;
    QCheck_alcotest.to_alcotest prop_simd_equals_scalar;
    QCheck_alcotest.to_alcotest prop_mmat2_bytes;
  ]
