(* The lowered IR: interpreter semantics, C emission shapes, and the §V
   transformations (split / reorder / unroll / parallelize / vectorize /
   tile) preserving program meaning. *)

open Cir.Ir
module T = Cir.Transforms
module S = Runtime.Scalar
module Nd = Runtime.Ndarray
module E = Interp.Eval

(* Hand-built lowered program computing the Fig 1 temporal mean over an
   m x n x p cube passed as a parameter: exactly the Fig 3 loop nest. *)
let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let mean_body ~par =
  let m = MDim (Var "mat", Int 0)
  and n = MDim (Var "mat", Int 1)
  and p = MDim (Var "mat", Int 2) in
  let off_means = (Var "i" *: n) +: Var "j" in
  let off_mat = (((Var "i" *: n) +: Var "j") *: p) +: Var "k" in
  let jbody =
    [
      Decl (CFloat, "acc", Some (Float 0.));
      For
        (mk_loop ~index:"k" ~bound:p
           [ Assign (LVar "acc", Var "acc" +: MGetFlat (Var "mat", off_mat)) ]);
      MSetFlat (Var "means", off_means, Var "acc" /: Unop (FloatOfInt, p));
    ]
  in
  let iloop =
    mk_loop ~index:"i" ~bound:m
      [ For (mk_loop ~index:"j" ~bound:n jbody) ]
  in
  [
    Decl (CMat (Nd.EFloat, 2), "means", Some (MAlloc { elem = Nd.EFloat; dims = [ m; n ]; zeroed = false }));
    (if par then ParFor iloop else For iloop);
    Return (Some (Var "means"));
  ]

let mean_prog ~par =
  {
    funcs =
      [
        {
          f_name = "temporal_mean";
          f_params = [ (CMat (Nd.EFloat, 3), "mat") ];
          f_ret = CMat (Nd.EFloat, 2);
          f_body = mean_body ~par;
          f_span = None;
          f_origin = None;
        };
      ];
    main = "temporal_mean";
  }

let cube m n p =
  Nd.init_float [| m; n; p |] (fun ix ->
      Float.of_int ((100 * ix.(0)) + (10 * ix.(1))) +. (0.5 *. Float.of_int ix.(2)))

let oracle_mean c =
  let sh = Nd.shape c in
  Nd.init_float [| sh.(0); sh.(1) |] (fun ix ->
      let acc = ref 0. in
      for k = 0 to sh.(2) - 1 do
        acc := !acc +. S.to_float (Nd.get c [| ix.(0); ix.(1); k |])
      done;
      !acc /. float_of_int sh.(2))

let run_mean ?pool prog c =
  match E.run ?pool prog [ E.VMat (Runtime.Rc.alloc c) ] with
  | E.VMat rc -> Runtime.Rc.get rc
  | v -> Alcotest.failf "unexpected result %a" E.pp_value v

let nd = Alcotest.testable Nd.pp Nd.equal

let test_interp_mean () =
  let c = cube 3 4 5 in
  let got = run_mean (mean_prog ~par:false) c in
  Alcotest.(check bool) "mean matches oracle" true
    (Nd.approx_equal got (oracle_mean c))

let test_interp_parallel_mean () =
  let c = cube 6 8 10 in
  Runtime.Pool.with_pool 3 (fun pool ->
      let got = run_mean ~pool (mean_prog ~par:true) c in
      Alcotest.(check bool) "parallel mean matches oracle" true
        (Nd.approx_equal got (oracle_mean c)))

(* --- transformation semantics: every script preserves the result --------- *)

let transformed_mean ts =
  let prog = mean_prog ~par:false in
  let f = List.hd prog.funcs in
  match T.apply_all ts f.f_body with
  | Error e -> Alcotest.failf "transform failed: %s" e
  | Ok body -> { prog with funcs = [ { f with f_body = body } ] }

let check_script name ts =
  (* n = 8 is a multiple of 4 (clean split); also try n = 10 (remainder). *)
  List.iter
    (fun (m, n, p) ->
      let c = cube m n p in
      let got = run_mean (transformed_mean ts) c in
      Alcotest.(check bool)
        (Printf.sprintf "%s preserves semantics (%dx%dx%d)" name m n p)
        true
        (Nd.approx_equal ~eps:1e-4 got (oracle_mean c)))
    [ (3, 8, 5); (3, 10, 7); (2, 4, 1) ]

let split4 = T.Split { target = "j"; factor = 4; inner = "jin"; outer = "jout" }

let test_transform_split () = check_script "split" [ split4 ]

let test_transform_split_vectorize () =
  check_script "split+vectorize" [ split4; T.Vectorize "jin" ]

let test_transform_fig9 () =
  (* Fig 9: split j by 4, jin, jout. vectorize jin. parallelize i. *)
  let ts = [ split4; T.Vectorize "jin"; T.Parallelize "i" ] in
  let c = cube 5 12 6 in
  Runtime.Pool.with_pool 2 (fun pool ->
      let got = run_mean ~pool (transformed_mean ts) c in
      Alcotest.(check bool) "fig9 script preserves semantics" true
        (Nd.approx_equal ~eps:1e-4 got (oracle_mean c)))

let test_transform_interchange () =
  check_script "interchange" [ T.Interchange ("i", "j") ]

let test_transform_tile () =
  (* Tile needs a perfect i/j nest: our mean loop nest is one. *)
  check_script "tile" [ T.Tile { outer_ix = "i"; inner_ix = "j"; size = 2 } ]

let test_transform_unroll () =
  (* Unroll the k loop after fixing p statically. *)
  let prog = mean_prog ~par:false in
  let f = List.hd prog.funcs in
  (* Replace the symbolic k bound with a static 6 to allow unrolling. *)
  let body =
    map_stmts Fun.id
      (function
        | For ({ index = "k"; _ } as l) -> For { l with bound = Int 6 }
        | s -> s)
      f.f_body
  in
  match T.apply_all [ T.Unroll { target = "k"; factor = 3 } ] body with
  | Error e -> Alcotest.failf "unroll failed: %s" e
  | Ok body' ->
      let prog' = { prog with funcs = [ { f with f_body = body' } ] } in
      let c = cube 3 4 6 in
      let got = run_mean prog' c in
      Alcotest.(check bool) "unroll preserves semantics" true
        (Nd.approx_equal got (oracle_mean c))

(* --- transformation error reporting ---------------------------------------- *)

let test_transform_errors () =
  let body = (List.hd (mean_prog ~par:false).funcs).f_body in
  (match T.apply (T.Split { target = "z"; factor = 4; inner = "a"; outer = "b" }) body with
  | Error e ->
      Alcotest.(check bool) "names loops in scope" true
        (String.length e > 0
        && String.index_opt e 'i' <> None
        && is_infix ~affix:"no loop indexed by 'z'" e)
  | Ok _ -> Alcotest.fail "expected error for unknown loop");
  (match T.apply (T.Vectorize "j") body with
  | Error e ->
      Alcotest.(check bool) "vectorize needs split first" true
        (is_infix ~affix:"split it first" e)
  | Ok _ -> Alcotest.fail "expected error for unsplit vectorize");
  match T.apply (T.Reorder [ "i"; "k" ]) body with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error for non-perfect nest reorder"

(* --- golden C emission ------------------------------------------------------- *)

let test_emit_fig3_shape () =
  (* The untransformed lowering prints as the Fig 3 nest. *)
  let c = Cir.Emit.stmts (mean_body ~par:false) in
  let contains affix = is_infix ~affix c in
  (* a statement list emitted on its own names no span: id -1 *)
  Alcotest.(check bool) "allocates means" true
    (contains "mm_alloc_float(-1, 2");
  Alcotest.(check bool) "outer i loop" true
    (contains "for (int i = 0; i < mat->dims[0]; i++)");
  Alcotest.(check bool) "inner j loop" true
    (contains "for (int j = 0; j < mat->dims[1]; j++)");
  Alcotest.(check bool) "accumulation" true (contains "acc = acc +");
  Alcotest.(check bool) "direct store into means, no temp copy" true
    (contains "means->data[i * mat->dims[1] + j] = mm_div(acc, ")

let test_emit_fig10_shape () =
  (* After split j by 4: jout/jin nest with j reconstructed (Fig 10). *)
  let body =
    match T.apply split4 (mean_body ~par:false) with
    | Ok b -> b
    | Error e -> Alcotest.failf "split: %s" e
  in
  let c = Cir.Emit.stmts body in
  let contains affix = is_infix ~affix c in
  Alcotest.(check bool) "jout loop over n/4" true
    (contains "for (int jout = 0; jout < mat->dims[1] / 4; jout++)");
  Alcotest.(check bool) "jin loop over 4" true
    (contains "for (int jin = 0; jin < 4; jin++)");
  Alcotest.(check bool) "j replaced by jout*4+jin" true
    (contains "jout * 4 + jin")

let test_emit_fig11_shape () =
  (* After vectorize jin + parallelize i: SSE ops and the OpenMP pragma. *)
  let body =
    match
      T.apply_all
        [ split4; T.Vectorize "jin"; T.Parallelize "i" ]
        (mean_body ~par:false)
    with
    | Ok b -> b
    | Error e -> Alcotest.failf "fig11 script: %s" e
  in
  let c = Cir.Emit.stmts body in
  let contains affix = is_infix ~affix c in
  Alcotest.(check bool) "omp pragma" true (contains "#pragma omp parallel for");
  Alcotest.(check bool) "vector accumulator init" true (contains "_mm_set1_ps");
  Alcotest.(check bool) "strided pack (j stride = p)" true (contains "_mm_set_ps");
  Alcotest.(check bool) "vector add" true (contains "_mm_add_ps");
  Alcotest.(check bool) "vector div" true (contains "_mm_div_ps");
  Alcotest.(check bool) "no leftover jin loop" false (contains "jin++");
  (* Fig 11: loop-invariant vector constants floated above the nest. *)
  Alcotest.(check bool) "hoisted splat decl" true (contains "__m128 __mm_vc")

let test_emit_expression_precedence () =
  let e = (Var "i" *: Var "n") +: Var "j" in
  Alcotest.(check string) "no spurious parens" "i * n + j" (Cir.Emit.expr e);
  let e2 = Binop (Arith S.Mul, Var "i" +: Var "j", Var "n") in
  Alcotest.(check string) "needed parens kept" "(i + j) * n" (Cir.Emit.expr e2)

let test_fold_expr () =
  Alcotest.(check string) "8/4 folds" "2" (Cir.Emit.expr (fold_expr (Int 8 /: Int 4)));
  Alcotest.(check string) "n/4 stays" "n / 4"
    (Cir.Emit.expr (fold_expr (Var "n" /: Int 4)));
  Alcotest.(check string) "x*1 folds" "x" (Cir.Emit.expr (fold_expr (Var "x" *: Int 1)));
  Alcotest.(check string) "0+x folds" "x" (Cir.Emit.expr (fold_expr (Int 0 +: Var "x")))

(* Property: random transformation scripts either fail cleanly or preserve
   semantics. *)
let gen_script =
  QCheck.Gen.(
    list_size (1 -- 3)
      (oneofl
         [
           T.Split { target = "j"; factor = 4; inner = "jin"; outer = "jout" };
           T.Split { target = "i"; factor = 2; inner = "iin"; outer = "iout" };
           T.Interchange ("i", "j");
           T.Parallelize "i";
           T.Vectorize "jin";
           T.Tile { outer_ix = "i"; inner_ix = "j"; size = 2 };
         ]))

let prop_random_scripts =
  QCheck.Test.make ~name:"random transform scripts preserve semantics"
    ~count:60 (QCheck.make gen_script) (fun ts ->
      let f = List.hd (mean_prog ~par:false).funcs in
      match T.apply_all ts f.f_body with
      | Error _ -> true (* clean rejection is fine *)
      | Ok body ->
          let prog = { (mean_prog ~par:false) with funcs = [ { f with f_body = body } ] } in
          let c = cube 3 8 5 in
          let got = run_mean prog c in
          Nd.approx_equal ~eps:1e-4 got (oracle_mean c))

(* --- the executor's scoping contract, on hand-built CIR ------------------ *)

type site += Test_site

let func ?(params = []) name body =
  {
    f_name = name;
    f_params = params;
    f_ret = CInt;
    f_body = body;
    f_span = None;
    f_origin = None;
  }

let run_int ?pool ?(args = []) funcs =
  match E.run ?pool { funcs; main = "main" } args with
  | E.VScal (S.I n) -> n
  | v -> Alcotest.failf "unexpected result %a" E.pp_value v

let int_decl name e = Decl (CInt, name, Some e)
let ret e = Return (Some e)

let test_block_shadows () =
  (* int x = 1; int seen; { int x = 2; seen = x; } return seen * 10 + x; *)
  Alcotest.(check int) "inner x shadows, outer x is back after the block" 21
    (run_int
       [
         func "main"
           [
             int_decl "x" (Int 1);
             Decl (CInt, "seen", None);
             Block [ int_decl "x" (Int 2); Assign (LVar "seen", Var "x") ];
             ret ((Var "seen" *: Int 10) +: Var "x");
           ];
       ])

let test_wrappers_are_not_scopes () =
  Alcotest.(check int) "Located and Site declarations reach later siblings" 34
    (run_int
       [
         func "main"
           [
             Located (Support.Pos.dummy_span, [ int_decl "a" (Int 3) ]);
             Site (Test_site, [ int_decl "b" (Int 4) ]);
             ret ((Var "a" *: Int 10) +: Var "b");
           ];
       ])

let test_redeclaration () =
  (* int x = 1; int y = x; int x = 5; { int x = x + 1; z = x; }
     return y * 100 + x * 10 + z; — the second Decl wins for later reads,
     and an initialiser sees the outer binding of its own name. *)
  Alcotest.(check int) "second Decl wins; initialiser sees the outer x" 156
    (run_int
       [
         func "main"
           [
             int_decl "x" (Int 1);
             int_decl "y" (Var "x");
             int_decl "x" (Int 5);
             Decl (CInt, "z", None);
             Block
               [ int_decl "x" (Var "x" +: Int 1); Assign (LVar "z", Var "x") ];
             ret ((Var "y" *: Int 100) +: (Var "x" *: Int 10) +: Var "z");
           ];
       ])

let test_loop_decl_reinitialised () =
  (* Each iteration adds its index to a body-local declared without (For)
     and with (While) an initialiser: 0+1+2 if it starts afresh every
     time, more if a value leaked from the previous iteration. *)
  let body i =
    [
      Decl (CInt, "acc", None);
      Assign (LVar "acc", Var "acc" +: i);
      Assign (LVar "total", Var "total" +: Var "acc");
    ]
  in
  Alcotest.(check int) "For body local starts from its default" 3
    (run_int
       [
         func "main"
           [
             int_decl "total" (Int 0);
             For (mk_loop ~index:"i" ~bound:(Int 3) (body (Var "i")));
             ret (Var "total");
           ];
       ]);
  Alcotest.(check int) "While body local starts from its initialiser" 6
    (run_int
       [
         func "main"
           [
             int_decl "total" (Int 0);
             int_decl "i" (Int 0);
             While
               ( Binop (Cmp S.Lt, Var "i", Int 3),
                 [
                   int_decl "acc" (Int 1);
                   Assign (LVar "acc", Var "acc" +: Var "i");
                   Assign (LVar "total", Var "total" +: Var "acc");
                   Assign (LVar "i", Var "i" +: Int 1);
                 ] );
             ret (Var "total");
           ];
       ])

let test_parfor_shared_write () =
  (* int found = -1; parfor i < 64 { int twice = i * 2;
     if (i == 37) found = twice; } return found; *)
  let prog =
    [
      func "main"
        [
          int_decl "found" (Int (-1));
          ParFor
            (mk_loop ~index:"i" ~bound:(Int 64)
               [
                 int_decl "twice" (Var "i" *: Int 2);
                 If
                   ( Binop (Cmp S.Eq, Var "i", Int 37),
                     [ Assign (LVar "found", Var "twice") ],
                     [] );
               ]);
          ret (Var "found");
        ];
    ]
  in
  Alcotest.(check int) "write visible after the loop, no pool" 74
    (run_int prog);
  Runtime.Pool.with_pool 4 (fun pool ->
      Alcotest.(check int) "write visible after the loop, 4 workers" 74
        (run_int ~pool prog))

let test_recursion_own_frame () =
  (* int f(int n) { int mine = n; if (n > 0) { int r = f(n - 1);
     return mine + 10 * r; } return mine; } — f(3) = 123 only if the
     inner calls leave this call's [mine] alone. *)
  let f =
    func "f"
      ~params:[ (CInt, "n") ]
      [
        int_decl "mine" (Var "n");
        If
          ( Binop (Cmp S.Gt, Var "n", Int 0),
            [
              int_decl "r" (Call ("f", [ Var "n" -: Int 1 ]));
              ret (Var "mine" +: (Int 10 *: Var "r"));
            ],
            [] );
        ret (Var "mine");
      ]
  in
  Alcotest.(check int) "f(3)" 123
    (run_int [ func "main" [ ret (Call ("f", [ Int 3 ])) ]; f ])

let test_lazy_resolution_errors () =
  (* Names the type checker would reject, on branches selected by the
     entry function's argument: nothing is raised until one runs. *)
  let funcs =
    [
      func "main"
        ~params:[ (CInt, "take") ]
        [
          If (Binop (Cmp S.Eq, Var "take", Int 1), [ ret (Var "ghost") ], []);
          If
            ( Binop (Cmp S.Eq, Var "take", Int 2),
              [ ret (Call ("nowhere", [ Int 1 ])) ],
              [] );
          If
            ( Binop (Cmp S.Eq, Var "take", Int 3),
              [ ExprS (MRead (Var "take")) ],
              [] );
          ret (Int 7);
        ];
    ]
  in
  let run take = run_int ~args:[ E.VScal (S.I take) ] funcs in
  Alcotest.(check int) "untaken branches raise nothing" 7 (run 0);
  Alcotest.check_raises "unbound variable" (E.Interp_error "unbound variable ghost")
    (fun () -> ignore (run 1));
  Alcotest.check_raises "undefined function"
    (E.Interp_error "undefined function nowhere") (fun () -> ignore (run 2));
  Alcotest.check_raises "non-literal path"
    (E.Interp_error "readMatrix requires a literal path") (fun () ->
      ignore (run 3))

(* --- scratch directories ---------------------------------------------------- *)

let fresh_dir () = Filename.temp_dir "mmcir" ""

let with_temp_dir_name d f =
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name d;
  Fun.protect ~finally:(fun () -> Filename.set_temp_dir_name saved) f

let test_run_removes_scratch_dir () =
  (* The program writes a matrix file, then (with [fail]) reads an
     unbound name: without [~dir] the run's scratch directory must be
     gone afterwards, file included, on both exits; with [~dir] the
     caller's directory and the file stay. *)
  let prog ~fail =
    {
      funcs =
        [
          func "main"
            [
              Decl
                ( CMat (Nd.EInt, 1),
                  "m",
                  Some (MAlloc { elem = Nd.EInt; dims = [ Int 3 ]; zeroed = true })
                );
              MWrite (Str "out/m.data", Var "m");
              RcDec (Var "m");
              ret (if fail then Var "ghost" else Int 1);
            ];
        ];
      main = "main";
    }
  in
  let tmp = fresh_dir () in
  with_temp_dir_name tmp (fun () ->
      ignore (E.run (prog ~fail:false) []);
      Alcotest.check_raises "failing run still raises"
        (E.Interp_error "unbound variable ghost") (fun () ->
          ignore (E.run (prog ~fail:true) []));
      let dir = fresh_dir () in
      ignore (E.run ~dir (prog ~fail:false) []);
      Alcotest.(check bool) "a supplied dir keeps its files" true
        (Sys.file_exists (E.data_path ~dir "out/m.data"));
      Sys.remove (E.data_path ~dir "out/m.data");
      Sys.rmdir dir);
  Alcotest.(check (array string)) "nothing left in the temp dir" [||]
    (Sys.readdir tmp);
  Sys.rmdir tmp

let suite =
  [
    Alcotest.test_case "interpret mean (Fig 3)" `Quick test_interp_mean;
    Alcotest.test_case "interpret parallel mean" `Quick test_interp_parallel_mean;
    Alcotest.test_case "split preserves semantics" `Quick test_transform_split;
    Alcotest.test_case "split+vectorize preserves semantics" `Quick
      test_transform_split_vectorize;
    Alcotest.test_case "Fig 9 script end-to-end" `Quick test_transform_fig9;
    Alcotest.test_case "interchange preserves semantics" `Quick
      test_transform_interchange;
    Alcotest.test_case "tile preserves semantics" `Quick test_transform_tile;
    Alcotest.test_case "unroll preserves semantics" `Quick test_transform_unroll;
    Alcotest.test_case "transform errors" `Quick test_transform_errors;
    Alcotest.test_case "emit Fig 3 shape" `Quick test_emit_fig3_shape;
    Alcotest.test_case "emit Fig 10 shape" `Quick test_emit_fig10_shape;
    Alcotest.test_case "emit Fig 11 shape" `Quick test_emit_fig11_shape;
    Alcotest.test_case "emit precedence" `Quick test_emit_expression_precedence;
    Alcotest.test_case "constant folding" `Quick test_fold_expr;
    QCheck_alcotest.to_alcotest prop_random_scripts;
    Alcotest.test_case "scope: a block shadows and restores" `Quick
      test_block_shadows;
    Alcotest.test_case "scope: Located and Site are not scopes" `Quick
      test_wrappers_are_not_scopes;
    Alcotest.test_case "scope: redeclaration and initialisers" `Quick
      test_redeclaration;
    Alcotest.test_case "scope: loop-body Decl every iteration" `Quick
      test_loop_decl_reinitialised;
    Alcotest.test_case "scope: ParFor writes an enclosing scalar" `Quick
      test_parfor_shared_write;
    Alcotest.test_case "scope: a frame per recursive call" `Quick
      test_recursion_own_frame;
    Alcotest.test_case "scope: unresolved names fail only when run" `Quick
      test_lazy_resolution_errors;
    Alcotest.test_case "run: scratch data dir removed" `Quick
      test_run_removes_scratch_dir;
  ]

let _ = nd
