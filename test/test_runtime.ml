(* Runtime substrate: shapes, ndarrays (every §III-A3 indexing mode),
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

let test_shape_iter_order () =
  let s = [| 2; 3 |] in
  let seen = ref [] in
  Shape.iter s (fun idx -> seen := Array.copy idx :: !seen);
  Alcotest.(check int) "count" 6 (List.length !seen);
  Alcotest.(check (array int)) "first row-major" [| 0; 0 |]
    (List.nth (List.rev !seen) 0);
  Alcotest.(check (array int)) "second row-major" [| 0; 1 |]
    (List.nth (List.rev !seen) 1);
  Alcotest.(check (array int)) "last" [| 1; 2 |] (List.hd !seen)

(* --- ndarray: construction and elementwise ops ---------------------------- *)

let m23 = Ndarray.of_float_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |]

let test_elementwise () =
  let b = Ndarray.of_float_array [| 2; 3 |] [| 10.; 20.; 30.; 40.; 50.; 60. |] in
  let sum = Ndarray.arith Scalar.Add m23 b in
  Alcotest.check nd "a+b"
    (Ndarray.of_float_array [| 2; 3 |] [| 11.; 22.; 33.; 44.; 55.; 66. |])
    sum;
  let prod = Ndarray.arith Scalar.Mul m23 m23 in
  Alcotest.check nd "elementwise .*"
    (Ndarray.of_float_array [| 2; 3 |] [| 1.; 4.; 9.; 16.; 25.; 36. |])
    prod;
  (* matrix-scalar, both orders *)
  let plus2 = Ndarray.arith_scalar Scalar.Add m23 (Scalar.F 2.) ~scalar_left:false in
  Alcotest.check sc "m+2 elem" (Scalar.F 8.) (Ndarray.get plus2 [| 1; 2 |]);
  let two_minus = Ndarray.arith_scalar Scalar.Sub m23 (Scalar.F 2.) ~scalar_left:true in
  Alcotest.check sc "2-m elem" (Scalar.F (-4.)) (Ndarray.get two_minus [| 1; 2 |])

let test_elementwise_errors () =
  let wrong_shape = Ndarray.of_float_array [| 3; 2 |] (Array.make 6 0.) in
  Alcotest.check_raises "shape mismatch"
    (Shape.Shape_error "shape mismatch: [2x3] vs [3x2]") (fun () ->
      ignore (Ndarray.arith Scalar.Add m23 wrong_shape));
  let ints = Ndarray.of_int_array [| 2; 3 |] (Array.make 6 0) in
  (match Ndarray.arith Scalar.Add m23 ints with
  | exception Ndarray.Type_error _ -> ()
  | _ -> Alcotest.fail "expected Type_error for float+int matrices");
  let bools = Ndarray.of_bool_array [| 2 |] [| true; false |] in
  match Ndarray.arith Scalar.Add bools bools with
  | exception Ndarray.Type_error _ -> ()
  | _ -> Alcotest.fail "expected Type_error for bool arithmetic"

let test_cmp_and_logic () =
  let mask = Ndarray.cmp_scalar Scalar.Gt m23 (Scalar.F 3.5) ~scalar_left:false in
  Alcotest.check nd "m > 3.5"
    (Ndarray.of_bool_array [| 2; 3 |] [| false; false; false; true; true; true |])
    mask;
  Alcotest.(check int) "count_true" 3 (Ndarray.count_true mask);
  let nmask = Ndarray.not_ mask in
  Alcotest.(check int) "negated" 3 (Ndarray.count_true nmask);
  let both = Ndarray.logic Scalar.And mask nmask in
  Alcotest.(check int) "x && !x" 0 (Ndarray.count_true both)

let test_matmul () =
  let a = Ndarray.of_float_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let b = Ndarray.of_float_array [| 3; 2 |] [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  let c = Ndarray.matmul a b in
  Alcotest.check nd "2x3 * 3x2"
    (Ndarray.of_float_array [| 2; 2 |] [| 58.; 64.; 139.; 154. |])
    c;
  Alcotest.check_raises "inner mismatch"
    (Shape.Shape_error "matrix multiplication inner dimensions: [2x3] vs [2x3]")
    (fun () -> ignore (Ndarray.matmul a a))

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
      let c = Ndarray.matmul a b in
      let ok = ref true in
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

(* --- ndarray: indexing (§III-A3 modes a-d) -------------------------------- *)

let cube =
  (* 3x4x5 cube with value 100i + 10j + k at [i,j,k] *)
  Ndarray.init_float [| 3; 4; 5 |] (fun idx ->
      float_of_int ((100 * idx.(0)) + (10 * idx.(1)) + idx.(2)))

let test_index_standard () =
  (* (a) standard indexing extracts a single element *)
  let s = Ndarray.slice cube [| At 2; At 3; At 1 |] in
  Alcotest.(check int) "rank 0" 0 (Ndarray.rank s);
  Alcotest.check sc "value" (Scalar.F 231.) (Ndarray.to_scalar s)

let test_index_range () =
  (* (b) data[0:4, end-4:end, 0:4] on a bigger cube returns 5x5x5 *)
  let big =
    Ndarray.init_float [| 10; 10; 10 |] (fun i ->
        float_of_int ((100 * i.(0)) + (10 * i.(1)) + i.(2)))
  in
  let s =
    Ndarray.slice big [| Range (0, 4); Range (5, 9); Range (0, 4) |]
  in
  Alcotest.(check (array int)) "shape 5x5x5" [| 5; 5; 5 |] (Ndarray.shape s);
  Alcotest.check sc "corner" (Scalar.F 50.) (Ndarray.get s [| 0; 0; 0 |]);
  Alcotest.check sc "other corner" (Scalar.F 494.) (Ndarray.get s [| 4; 4; 4 |])

let test_index_whole_dim () =
  (* (c) data[0, end, :] returns a vector of size dimSize(data,2) *)
  let v = Ndarray.slice cube [| At 0; At 3; All |] in
  Alcotest.(check (array int)) "vector" [| 5 |] (Ndarray.shape v);
  Alcotest.check nd "values"
    (Ndarray.of_float_array [| 5 |] [| 30.; 31.; 32.; 33.; 34. |])
    v

let test_index_logical () =
  (* (d) logical indexing by a boolean vector *)
  let v = Ndarray.of_int_array [| 6 |] [| 1; 2; 3; 4; 5; 6 |] in
  let mask = Ndarray.cmp_scalar Scalar.Eq
      (Ndarray.arith_scalar Scalar.Mod v (Scalar.I 2) ~scalar_left:false)
      (Scalar.I 1) ~scalar_left:false
  in
  let odd = Ndarray.slice v [| Mask mask |] in
  Alcotest.check nd "odd elements" (Ndarray.vec_i [ 1; 3; 5 ]) odd;
  (* logical on one dim of a matrix: data[v % 2 == 1, :] *)
  let mat =
    Ndarray.init_int [| 6; 3 |] (fun i -> (10 * i.(0)) + i.(1))
  in
  let rows = Ndarray.slice mat [| Mask mask; All |] in
  Alcotest.(check (array int)) "3x3" [| 3; 3 |] (Ndarray.shape rows);
  Alcotest.check sc "row pick" (Scalar.I 41) (Ndarray.get rows [| 2; 1 |])

let test_index_gather () =
  let v = Ndarray.of_float_array [| 6 |] [| 10.; 11.; 12.; 13.; 14.; 15. |] in
  let g = Ndarray.slice v [| Gather (Ndarray.vec_i [ 4; 0; 4 ]) |] in
  Alcotest.check nd "gather dup ok"
    (Ndarray.of_float_array [| 3 |] [| 14.; 10.; 14. |])
    g;
  Alcotest.check_raises "gather oob"
    (Shape.Shape_error "gather index 6 out of bounds in dimension 0")
    (fun () -> ignore (Ndarray.slice v [| Gather (Ndarray.vec_i [ 6 ]) |]))

let test_index_mixed () =
  (* combinations across dimensions, rank collapse only on At *)
  let s = Ndarray.slice cube [| At 1; Range (1, 2); Mask (Ndarray.of_bool_array [| 5 |] [| true; false; false; false; true |]) |] in
  Alcotest.(check (array int)) "shape 2x2" [| 2; 2 |] (Ndarray.shape s);
  Alcotest.check sc "[1,1,0]" (Scalar.F 110.) (Ndarray.get s [| 0; 0 |]);
  Alcotest.check sc "[1,2,4]" (Scalar.F 124.) (Ndarray.get s [| 1; 1 |])

let test_slice_assign () =
  let m = Ndarray.create Ndarray.EFloat [| 4; 4 |] in
  let sub = Ndarray.of_float_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  Ndarray.slice_assign m [| Range (1, 2); Range (1, 2) |] sub;
  Alcotest.check sc "written" (Scalar.F 4.) (Ndarray.get m [| 2; 2 |]);
  Alcotest.check sc "untouched" (Scalar.F 0.) (Ndarray.get m [| 0; 0 |]);
  (* scoreTS-style gather write-back: scores[beginning::i] = computed *)
  let scores = Ndarray.create Ndarray.EFloat [| 6 |] in
  Ndarray.slice_assign scores [| Range (2, 4) |] (Ndarray.vec_f [ 7.; 8.; 9. ]);
  Alcotest.check nd "range write"
    (Ndarray.of_float_array [| 6 |] [| 0.; 0.; 7.; 8.; 9.; 0. |])
    scores;
  Ndarray.fill_assign scores [| Mask (Ndarray.cmp_scalar Scalar.Eq scores (Scalar.F 0.) ~scalar_left:false) |] (Scalar.F (-1.));
  Alcotest.check nd "mask fill"
    (Ndarray.of_float_array [| 6 |] [| -1.; -1.; 7.; 8.; 9.; -1. |])
    scores;
  Alcotest.check_raises "region shape mismatch"
    (Shape.Shape_error "assignment of [2] into region [3]") (fun () ->
      Ndarray.slice_assign scores [| Range (0, 2) |] (Ndarray.vec_f [ 1.; 2. ]))

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
      let v = Ndarray.init_float [| n |] (fun i -> float_of_int i.(0)) in
      let a = Ndarray.slice (Ndarray.slice v [| Range (lo1, hi1) |]) [| Range (lo2, hi2) |] in
      let b = Ndarray.slice v [| Range (lo1 + lo2, lo1 + hi2) |] in
      Ndarray.equal a b)

let prop_mask_popcount =
  QCheck.Test.make ~name:"mask slice length = popcount" ~count:100
    QCheck.(make Gen.(list_size (1 -- 20) bool))
    (fun bools ->
      let n = List.length bools in
      let v = Ndarray.init_float [| n |] (fun i -> float_of_int i.(0)) in
      let mask = Ndarray.of_bool_array [| n |] (Array.of_list bools) in
      let s = Ndarray.slice v [| Mask mask |] in
      (Ndarray.shape s).(0) = List.length (List.filter Fun.id bools))

let test_range_construction () =
  Alcotest.check nd "x1::x2" (Ndarray.vec_i [ 3; 4; 5; 6 ]) (Ndarray.range 3 6);
  Alcotest.(check (array int)) "empty when hi<lo" [| 0 |]
    (Ndarray.shape (Ndarray.range 5 2))

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

let test_pool_fold () =
  Pool.with_pool 3 (fun pool ->
      let n = 5000 in
      let serial = n * (n - 1) / 2 in
      let par =
        Pool.parallel_fold pool 0 n ~init:0 ~body:(fun acc i -> acc + i)
          ~combine:( + )
      in
      Alcotest.(check int) "parallel fold equals serial" serial par)

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
    Alcotest.test_case "pool fold" `Quick test_pool_fold;
    Alcotest.test_case "pool region reuse" `Quick test_pool_reuse;
    Alcotest.test_case "pool single thread" `Quick test_pool_single_thread;
    Alcotest.test_case "naive fork-join" `Quick test_naive_forkjoin;
    QCheck_alcotest.to_alcotest prop_pool_matches_serial;
    Alcotest.test_case "simd ops" `Quick test_simd_ops;
    QCheck_alcotest.to_alcotest prop_simd_equals_scalar;
    QCheck_alcotest.to_alcotest prop_mmat2_bytes;
  ]
