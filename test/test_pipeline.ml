(* The full extensible-translator pipeline: composition analyses over the
   real host/extension grammars, context-aware keyword behaviour,
   domain-specific semantic errors (§III-A), golden C output (Fig 3),
   end-to-end execution of every paper program against native oracles, and
   the refcounting no-leak invariant. *)

module Nd = Runtime.Ndarray
module S = Runtime.Scalar

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* One composition per extension set, shared across tests. *)
let full = Driver.compose [ Driver.matrix; Driver.transform; Driver.refptr ]
let matrix_only = Driver.compose [ Driver.matrix ]
let plain = Driver.compose []

let fresh_dir () =
  let d = Filename.temp_file "mmtest" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let run_ok ?(c = full) ?dir ?pool ?(fuse = true) ?(copy_elim = true)
    ?(auto_par = false) src =
  let config =
    let open Driver.Pipeline in
    enable
      (enable (enable (Driver.default_config c) "fuse" fuse) "copy-elim"
         copy_elim)
      "auto-par" auto_par
  in
  match Driver.run ?dir ?pool ~config c src [] with
  | Driver.Ok_ v -> v
  | Driver.Failed ds -> Alcotest.failf "pipeline failed: %s" (Driver.diags_to_string ds)

let expect_error ?(c = full) src expected_fragment =
  match Driver.run c src [] with
  | Driver.Ok_ _ -> Alcotest.failf "expected error containing %S" expected_fragment
  | Driver.Failed ds ->
      let text = Driver.diags_to_string ds in
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S (got: %s)" expected_fragment text)
        true
        (is_infix ~affix:expected_fragment text)

let cube3 m n p =
  Nd.init_float [| m; n; p |] (fun ix ->
      float_of_int ((100 * ix.(0)) + (10 * ix.(1)))
      +. (0.5 *. float_of_int ix.(2)))

(* --- composition ------------------------------------------------------------- *)

let test_composition_reports () =
  List.iter
    (fun (r : Grammar.Determinism.report) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s passes isComposable" r.Grammar.Determinism.extension)
        true r.Grammar.Determinism.passes)
    full.Driver.determinism_reports;
  List.iter
    (fun (r : Ag.Wellformed.report) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s passes well-definedness" r.Ag.Wellformed.extension)
        true r.Ag.Wellformed.passes)
    full.Driver.ag_reports

let test_tuples_fails_iscomposable () =
  (* The paper's result (§VI-A): the tuples extension fails the analysis
     because its initial symbol is the host's "(". *)
  let r =
    Grammar.Determinism.check Cminus.Syntax.fragment
      Ext_tuples.Tuples_ext.grammar
  in
  Alcotest.(check bool) "tuples fails" false r.Grammar.Determinism.passes;
  Alcotest.(check bool) "marking-terminal violation" true
    (List.exists
       (fun v -> v.Grammar.Determinism.rule = "marking-terminal")
       r.Grammar.Determinism.violations)

(* Every subset of the shipped extensions composes conflict-free, and
   the translator Driver.compose reads back from the build-time snapshot
   is the one a live composition builds: same parse tables, same scanner
   DFAs, same analysis reports. *)
let test_composition_theorem_subsets () =
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let without = subsets rest in
        without @ List.map (fun s -> x :: s) without
  in
  let all = subsets Driver.all_extensions in
  Alcotest.(check int) "all 16 subsets" 16 (List.length all);
  List.iter
    (fun sel ->
      let name =
        "{" ^ String.concat "," (List.map (fun x -> x.Driver.x_name) sel) ^ "}"
      in
      let check what ok = Alcotest.(check bool) (name ^ ": " ^ what) true ok in
      let c = Driver.compose sel in
      check "LALR(1)" (Grammar.Lalr.is_lalr1 c.Driver.table);
      let live =
        match
          Composition.compose
            (List.map
               (fun x ->
                 {
                   Composition.grammar = x.Driver.grammar;
                   ag_spec = x.Driver.ag_spec;
                 })
               sel)
        with
        | Ok t -> t
        | Error m -> Alcotest.failf "%s: live composition failed: %s" name m
      in
      let t = c.Driver.table and l = live.Composition.table in
      check "same action table" (t.Grammar.Lalr.action = l.Grammar.Lalr.action);
      check "same goto table" (t.Grammar.Lalr.goto = l.Grammar.Lalr.goto);
      check "same valid terminals"
        (Array.for_all2 Grammar.Lalr.IntSet.equal t.Grammar.Lalr.valid_terms
           l.Grammar.Lalr.valid_terms);
      let sc p = p.Parser.Driver.scanner in
      let sc_c = sc c.Driver.parser_ and sc_l = sc live.Composition.parser_ in
      check "same scanner DFAs"
        (sc_c.Lexer.Scanner.dfas = sc_l.Lexer.Scanner.dfas
        && sc_c.Lexer.Scanner.layout_dfas = sc_l.Lexer.Scanner.layout_dfas
        && sc_c.Lexer.Scanner.prio = sc_l.Lexer.Scanner.prio);
      check "same determinism reports"
        (c.Driver.determinism_reports = live.Composition.determinism_reports);
      check "same well-definedness reports"
        (c.Driver.ag_reports = live.Composition.ag_reports))
    all

(* --- context-aware scanning on the real language ------------------------------- *)

let test_keywords_usable_as_identifiers () =
  (* Context-aware scanning (§VI-A): transform-extension keywords are only
     valid inside a transform clause, so `split`, `by`, `tile` etc. remain
     ordinary identifiers everywhere else — even in expressions. *)
  let src =
    {|
int main() {
  int split = 4;
  int by = 2;
  int tile = 3;
  int vectorize = 1;
  return split * by + tile + vectorize;
}
|}
  in
  (match run_ok src with
  | Interp.Eval.VScal (S.I 12) -> ()
  | v -> Alcotest.failf "got %a" Interp.Eval.pp_value v);
  (* Matrix-extension keywords can start expressions (`with (...) ...`),
     so in expression positions the keyword interpretation wins and the
     name is effectively reserved there — but declaring it stays legal
     because after a type only ID is valid. *)
  (match run_ok {|
int main() {
  int with = 1;
  int end = 2;
  int init = 3;
  return 0;
}
|} with
  | Interp.Eval.VScal (S.I 0) -> ()
  | v -> Alcotest.failf "got %a" Interp.Eval.pp_value v);
  match Driver.run full "int main() { int with = 1; return with; }" [] with
  | Driver.Ok_ _ ->
      Alcotest.fail "`with` in expression position should scan as the keyword"
  | Driver.Failed _ -> ()

let test_plain_c_unaffected () =
  (* Without the matrix extension, `with` is just an identifier
     everywhere. *)
  let src = {|
int main() {
  int with = 20;
  int x = with * 2;
  return x + 2;
}
|} in
  match run_ok ~c:plain src with
  | Interp.Eval.VScal (S.I 42) -> ()
  | v -> Alcotest.failf "got %a" Interp.Eval.pp_value v

let test_matrix_syntax_requires_extension () =
  match Driver.run plain "int main() { Matrix float <2> m; return 0; }" [] with
  | Driver.Ok_ _ -> Alcotest.fail "Matrix type should not parse without the extension"
  | Driver.Failed _ -> ()

(* --- host-language semantics ------------------------------------------------------ *)

let test_host_programs () =
  let cases =
    [
      ("int main() { return 2 + 3 * 4; }", S.I 14);
      ("int main() { return (2 + 3) * 4; }", S.I 20);
      ("int main() { int x = 10; x = x - 3; return x % 4; }", S.I 3);
      ("int main() { float f = 7f; return (int)(f / 2.0); }", S.I 3);
      ( "int main() { int acc = 0; for (int i = 1; i <= 5; i++) { acc = acc + i; } return acc; }",
        S.I 15 );
      ( "int main() { int i = 0; int acc = 0; while (i < 10) { i++; if (i % 2 == 0) { continue; } acc = acc + i; } return acc; }",
        S.I 25 );
      ( "int main() { int acc = 0; for (int i = 0; i < 100; i++) { if (i == 7) { break; } acc = acc + 1; } return acc; }",
        S.I 7 );
      ( "int f(int x) { if (x <= 1) { return 1; } return x * f(x - 1); } int main() { return f(5); }",
        S.I 120 );
      ( "bool odd(int n) { return n % 2 == 1; } int main() { if (odd(3) && !odd(4)) { return 1; } return 0; }",
        S.I 1 );
      ( "int main() { int a = 1; { int a = 2; } return a; }", S.I 1 );
    ]
  in
  List.iter
    (fun (src, expect) ->
      match run_ok ~c:plain src with
      | Interp.Eval.VScal got ->
          Alcotest.(check bool)
            (Printf.sprintf "%s = %s" src (S.to_string expect))
            true (S.equal got expect)
      | v -> Alcotest.failf "got %a" Interp.Eval.pp_value v)
    cases

let test_tuples_host_packaged () =
  let src =
    {|
(int, float, bool) trio(int x) {
  return (x * 2, 1.5, x > 0);
}
int main() {
  int a = 0;
  float b = 0f;
  bool c = false;
  (a, b, c) = trio(21);
  if (c) { return a + (int) b; }
  return -1;
}
|}
  in
  match run_ok ~c:plain src with
  | Interp.Eval.VScal (S.I 43) -> ()
  | v -> Alcotest.failf "got %a" Interp.Eval.pp_value v

(* --- semantic error checks (the paper's §III analyses) ----------------------------- *)

let test_semantic_errors () =
  List.iter
    (fun (src, frag) -> expect_error src frag)
    [
      (* rank/type agreement for matrix arithmetic (§III-A2) *)
      ( {|int main() { Matrix float <2> a = init(Matrix float <2>, 2, 2);
           Matrix float <1> b = init(Matrix float <1>, 4);
           Matrix float <2> c = a + b; return 0; }|},
        "same type and rank" );
      ( {|int main() { Matrix int <1> a = init(Matrix int <1>, 3);
           Matrix float <1> b = init(Matrix float <1>, 3);
           Matrix int <1> c = a + b; return 0; }|},
        "same type and rank" );
      (* with-loop arity checks (§III-A4) *)
      ( {|int main() { Matrix float <2> m =
             with ([0] <= [i,j] < [4,4]) genarray([4,4], 0f); return 0; }|},
        "lower bound" );
      ( {|int main() { Matrix float <2> m =
             with ([0,0] <= [i,j] < [4,4]) genarray([4], 0f); return 0; }|},
        "genarray: shape has 1 dimension(s)" );
      (* subscript arity *)
      ( {|int main() { Matrix float <2> m = init(Matrix float <2>, 2, 2);
           float x = m[0]; return 0; }|},
        "rank-2 matrix subscripted with 1" );
      (* end outside a subscript *)
      ( {|int main() { int x = end; return x; }|},
        "only meaningful inside a matrix subscript" );
      (* matrixMap rank restriction (§III-A5) *)
      ( {|Matrix float <1> f(Matrix float <1> v) { return v; }
         int main() { Matrix float <3> d = init(Matrix float <3>, 2, 2, 2);
           Matrix float <3> r = matrixMap(f, d, [0, 1]); return 0; }|},
        "rank" );
      (* undefined function in matrixMap *)
      ( {|int main() { Matrix float <2> d = init(Matrix float <2>, 2, 2);
           Matrix float <2> r = matrixMap(nosuch, d, [0]); return 0; }|},
        "undefined function" );
      (* readMatrix needs a typed context *)
      ( {|int main() { int x = readMatrix("f.data"); return x; }|},
        "matrix-typed context" );
      (* boolean matrix arithmetic *)
      ( {|int main() { Matrix bool <1> b = init(Matrix bool <1>, 3);
           Matrix bool <1> c = b + b; return 0; }|},
        "arithmetic on boolean matrices" );
      (* host errors still reported with extensions loaded *)
      ({|int main() { return y; }|}, "unbound variable 'y'");
      ({|int main() { break; }|}, "break outside of a loop");
      ( {|int f() { return 1; } int f() { return 2; } int main() { return 0; }|},
        "defined twice" );
      ({|int main() { if (1) { return 1; } return 0; }|}, "expected bool");
      (* transform scripts naming unknown loops (§V error check) *)
      ( {|int main() {
           Matrix float <2> m = init(Matrix float <2>, 4, 4);
           m = with ([0,0] <= [i,j] < [4,4]) genarray([4,4], 1f)
             transform parallelize z;
           return 0; }|},
        "no loop indexed by 'z'" );
    ]

(* --- golden C output (Fig 3) -------------------------------------------------------- *)

let test_fig3_golden_c () =
  match Driver.compile_to_c full Eddy.Programs.fig1_temporal_mean with
  | Driver.Failed ds -> Alcotest.failf "emit failed: %s" (Driver.diags_to_string ds)
  | Driver.Ok_ c ->
      let contains affix = is_infix ~affix c in
      (* the Fig 3 nest: two loops, sequential accumulation, direct store *)
      Alcotest.(check bool) "outer i loop" true
        (contains "for (int i = 0; i < m; i++)");
      Alcotest.(check bool) "inner j loop" true
        (contains "for (int j = 0; j < n; j++)");
      Alcotest.(check bool) "k fold" true
        (contains "for (int k = 0; k < p; k++)");
      Alcotest.(check bool) "fused direct store (no temp copy)" false
        (contains "library-style");
      Alcotest.(check bool) "refcounting present" true
        (contains "mm_rc_dec");
      Alcotest.(check bool) "reads flat buffer" true
        (contains "mat->data[(i * mat->dims[1] + j) * mat->dims[2] + k]")

let test_fig10_fig11_golden_c () =
  match Driver.compile_to_c full Eddy.Programs.fig9_transformed with
  | Driver.Failed ds -> Alcotest.failf "emit failed: %s" (Driver.diags_to_string ds)
  | Driver.Ok_ c ->
      let contains affix = is_infix ~affix c in
      Alcotest.(check bool) "jout loop" true (contains "jout");
      Alcotest.(check bool) "omp pragma on i" true
        (contains "#pragma omp parallel for");
      Alcotest.(check bool) "SSE splat" true (contains "_mm_set1_ps");
      Alcotest.(check bool) "SSE strided pack" true (contains "_mm_set_ps");
      Alcotest.(check bool) "no scalar jin loop left" false (contains "jin++")

(* --- end-to-end program runs vs oracles ----------------------------------------------- *)

let oracle_mean c =
  let sh = Nd.shape c in
  Nd.init_float [| sh.(0); sh.(1) |] (fun ix ->
      let acc = ref 0. in
      for k = 0 to sh.(2) - 1 do
        acc := !acc +. S.to_float (Nd.get c [| ix.(0); ix.(1); k |])
      done;
      !acc /. float_of_int sh.(2))

let run_with_cube ?fuse ?auto_par ?pool ~c src cube out_name =
  let dir = fresh_dir () in
  Interp.Eval.provide_input ~dir "ssh.data" cube;
  Runtime.Rc.reset ();
  ignore (run_ok ~c ~dir ?fuse ?auto_par ?pool src);
  let leaks = Runtime.Rc.live_count () in
  (Interp.Eval.fetch_output ~dir out_name, leaks)

let test_fig1_run () =
  let cube = cube3 3 5 7 in
  let got, leaks =
    run_with_cube ~c:full Eddy.Programs.fig1_temporal_mean cube "means.data"
  in
  Alcotest.(check bool) "means match oracle" true
    (Nd.approx_equal ~eps:1e-4 got (oracle_mean cube));
  Alcotest.(check int) "no leaked allocations" 0 leaks

let test_fig9_run_matches_fig1 () =
  let cube = cube3 4 12 6 in
  let got, leaks =
    run_with_cube ~c:full Eddy.Programs.fig9_transformed cube "means.data"
  in
  Alcotest.(check bool) "transformed means match oracle" true
    (Nd.approx_equal ~eps:1e-4 got (oracle_mean cube));
  Alcotest.(check int) "no leaks under transforms" 0 leaks

let test_fig1_parallel_run () =
  Runtime.Pool.with_pool 3 (fun pool ->
      let cube = cube3 4 6 9 in
      let got, leaks =
        run_with_cube ~c:full ~auto_par:true ~pool
          Eddy.Programs.fig1_temporal_mean cube "means.data"
      in
      Alcotest.(check bool) "parallel means match oracle" true
        (Nd.approx_equal ~eps:1e-4 got (oracle_mean cube));
      Alcotest.(check int) "no leaks in parallel" 0 leaks)

let test_fig1_unfused_matches () =
  let cube = cube3 3 4 5 in
  let fused, _ =
    run_with_cube ~c:full ~fuse:true Eddy.Programs.fig1_temporal_mean cube
      "means.data"
  in
  let unfused, leaks =
    run_with_cube ~c:full ~fuse:false Eddy.Programs.fig1_temporal_mean cube
      "means.data"
  in
  Alcotest.(check bool) "library-style lowering same result" true
    (Nd.approx_equal fused unfused);
  Alcotest.(check int) "library-style still leak-free" 0 leaks

let test_fig8_run_vs_oracle () =
  (* planted trough signature (Fig 7) in every series *)
  let p = 40 in
  let ts k =
    let fk = float_of_int k in
    if k < 10 then 1.0 +. (0.01 *. fk)
    else if k < 20 then 1.1 -. (0.1 *. (fk -. 10.))
    else if k < 30 then 0.1 +. (0.1 *. (fk -. 20.))
    else 1.1 -. (0.005 *. (fk -. 30.))
  in
  let cube = Nd.init_float [| 2; 3; p |] (fun ix -> ts ix.(2)) in
  let got, leaks =
    run_with_cube ~c:full Eddy.Programs.fig8_scoring cube "temporalScores.data"
  in
  let oracle = Eddy.Score.score_cube cube in
  Alcotest.(check bool) "translated Fig 8 matches native oracle" true
    (Nd.approx_equal ~eps:1e-3 got oracle);
  Alcotest.(check int) "no leaks across matrixMap + tuples" 0 leaks;
  (* and the scores actually rank the trough above the noise bumps *)
  Alcotest.(check bool) "trough scored high" true
    (S.to_float (Nd.get got [| 0; 0; 15 |]) > 5.);
  Alcotest.(check bool) "flat region scored low" true
    (S.to_float (Nd.get got [| 0; 0; 35 |]) < 1.)

let test_fig4_run_vs_oracle () =
  let lat = 12 and lon = 14 and time = 4 in
  let cube, _ =
    Eddy.Ssh_gen.generate ~lat ~lon ~time ~n_eddies:2 ~seed:7 ()
  in
  let dates = Nd.init_int [| time |] (fun ix -> 1012000 + ix.(0)) in
  let dir = fresh_dir () in
  Interp.Eval.provide_input ~dir "ssh.data" cube;
  Interp.Eval.provide_input ~dir "dates.data" dates;
  Runtime.Rc.reset ();
  ignore (run_ok ~c:full ~dir Eddy.Programs.fig4_conncomp);
  Alcotest.(check int) "no leaks" 0 (Runtime.Rc.live_count ());
  let labels = Interp.Eval.fetch_output ~dir "eddyLabels.data" in
  Alcotest.(check (array int)) "label cube shape"
    [| lat; lon; time |] (Nd.shape labels);
  (* compare partitions per frame with the union-find oracle *)
  for t = 0 to time - 1 do
    let fr = Eddy.Ssh_gen.frame cube t in
    let oracle = Eddy.Conncomp.label (Eddy.Conncomp.below ~threshold:(-0.25) fr) in
    let same_partition =
      let ok = ref true in
      let assoc : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let rassoc : (int, int) Hashtbl.t = Hashtbl.create 16 in
      for i = 0 to lat - 1 do
        for j = 0 to lon - 1 do
          let a = S.to_int (Nd.get labels [| i; j; t |]) in
          let b = S.to_int (Nd.get oracle [| i; j |]) in
          if (a = 0) <> (b = 0) then ok := false
          else if a <> 0 then begin
            (match Hashtbl.find_opt assoc a with
            | Some b' -> if b <> b' then ok := false
            | None -> Hashtbl.replace assoc a b);
            match Hashtbl.find_opt rassoc b with
            | Some a' -> if a <> a' then ok := false
            | None -> Hashtbl.replace rassoc b a
          end
        done
      done;
      !ok
    in
    Alcotest.(check bool)
      (Printf.sprintf "frame %d partition matches union-find" t)
      true same_partition
  done

let test_slice_copy_elimination () =
  (* The §III-A5 optimization: the slice-then-fold program gives the same
     answer, and the optimizer actually removes the slice allocations. *)
  let cube = cube3 3 4 6 in
  let got, _ =
    run_with_cube ~c:full Eddy.Programs.fig1_with_slice_copy cube "means.data"
  in
  Alcotest.(check bool) "slice-copy program matches oracle" true
    (Nd.approx_equal ~eps:1e-4 got (oracle_mean cube));
  (* optimized run performs fewer allocations than the unoptimized one *)
  let count_allocs ~copy_elim =
    let dir = fresh_dir () in
    Interp.Eval.provide_input ~dir "ssh.data" cube;
    Runtime.Rc.reset ();
    ignore
      (run_ok ~c:full ~dir ~copy_elim Eddy.Programs.fig1_with_slice_copy);
    (Runtime.Rc.stats ()).Runtime.Rc.allocs
  in
  let with_opt = count_allocs ~copy_elim:true in
  let without_opt = count_allocs ~copy_elim:false in
  Alcotest.(check bool)
    (Printf.sprintf "copy-elim allocates less (%d < %d)" with_opt without_opt)
    true (with_opt < without_opt)

(* --- slice-copy elimination is sound ---------------------------------------------------- *)

(* Each program gives a different answer if the slice is read in place
   instead of copied, so the copy-semantics answer must come out under
   every pipeline.  The blocker is what copy-elim's Missed remark names. *)
let slice_base_written_src =
  {|int main() {
  Matrix int <3> mat = with ([0,0,0] <= [a,b,c] < [2,2,4]) genarray([2,2,4], a + b + c);
  Matrix int <1> ts = mat[1, 1, :];
  mat[1, 1, 0] = 100;
  int total = with ([0] <= [k] < [4]) fold (+, 0, ts[k]);
  return total;
}|}

let slice_index_reassigned_src =
  {|int main() {
  Matrix int <3> mat = with ([0,0,0] <= [a,b,c] < [2,2,4]) genarray([2,2,4], a * 10 + b + c);
  int i = 0;
  Matrix int <1> ts = mat[i, 1, :];
  i = 1;
  int total = with ([0] <= [k] < [4]) fold (+, 0, ts[k]);
  return total;
}|}

(* Reads past the 4-element row: the copy makes that an error. *)
let slice_overread_src =
  {|int main() {
  Matrix int <2> g = with ([0,0] <= [a,b] < [3,4]) genarray([3,4], a * 10 + b);
  Matrix int <1> row = g[1, :];
  int total = with ([0] <= [k] < [6]) fold (+, 0, row[k]);
  return total;
}|}

(* The inner generator rebinds [k] from 1, so its reads run past the row
   although the outer [k] runs below dimSize(row, 0). *)
let slice_shadowed_overread_src =
  {|int main() {
  Matrix int <2> g = with ([0,0] <= [a,b] < [3,4]) genarray([3,4], a * 10 + b);
  Matrix int <1> row = g[1, :];
  return with ([0] <= [k] < [dimSize(row, 0)])
    fold (+, 0, with ([1] <= [k] < [6]) fold (+, 0, row[k]));
}|}

let slice_answers = [ (slice_base_written_src, 14); (slice_index_reassigned_src, 10) ]

(* The default pipeline and -O0 (every pass disabled). *)
let levels c =
  [
    ("default", Driver.default_config c);
    ("-O0", Driver.Pipeline.set_all (Driver.default_config c) false);
  ]

let test_slice_copy_semantics () =
  List.iter
    (fun (level, config) ->
      List.iter
        (fun (src, expected) ->
          match Driver.run ~config full src [] with
          | Driver.Ok_ (Interp.Eval.VScal (S.I n)) ->
              Alcotest.(check int) ("copy semantics at " ^ level) expected n
          | Driver.Ok_ v -> Alcotest.failf "got %a" Interp.Eval.pp_value v
          | Driver.Failed ds ->
              Alcotest.failf "run failed: %s" (Driver.diags_to_string ds))
        slice_answers;
      match Driver.run ~config full slice_overread_src [] with
      | Driver.Ok_ v ->
          Alcotest.failf "%s: over-read gave %a, expected an error" level
            Interp.Eval.pp_value v
      | Driver.Failed ds ->
          let text = Driver.diags_to_string ds in
          Alcotest.(check bool)
            (Printf.sprintf "%s: over-read is out of bounds (got: %s)" level text)
            true
            (is_infix
               ~affix:"index 4 out of bounds for dimension 0 of extent 4" text))
    (levels full)

(* The checker sees every slice declaration: no rewrite hides one. *)
let test_slice_declaration_typechecked () =
  let src =
    {|int main() {
  Matrix int <3> mat = with ([0,0,0] <= [a,b,c] < [2,2,4]) genarray([2,2,4], a + b + c);
  Matrix float <2> ts = mat[1, 1, :];
  int total = with ([0] <= [k] < [4]) fold (+, 0, ts[k]);
  return total;
}|}
  in
  match Driver.frontend full src with
  | Driver.Ok_ _ -> Alcotest.fail "ill-typed slice declaration accepted"
  | Driver.Failed ds ->
      let text = Driver.diags_to_string ds in
      List.iter
        (fun msg ->
          Alcotest.(check bool) (msg ^ " reported") true (is_infix ~affix:msg text))
        [
          "cannot initialise Matrix float <2> 'ts' from Matrix int <1>";
          "rank-2 matrix subscripted with 1 indices";
        ]

let copy_elim_remarks ?config src =
  match Driver.explain ?config full src with
  | Driver.Ok_ _, report ->
      Support.Remark.filter ~pass:"copy-elim"
        report.Driver.Explain_report.remarks
  | Driver.Failed ds, _ ->
      Alcotest.failf "explain failed: %s" (Driver.diags_to_string ds)

let kinds remarks = List.map (fun r -> r.Support.Remark.kind) remarks

let test_slice_blockers_explained () =
  List.iter
    (fun (src, blocker) ->
      match copy_elim_remarks src with
      | [ r ] ->
          Alcotest.(check bool)
            (Printf.sprintf "missed, naming %S (got: %s)" blocker
               r.Support.Remark.message)
            true
            (r.Support.Remark.kind = Support.Remark.Missed
            && is_infix ~affix:blocker r.Support.Remark.message)
      | rs -> Alcotest.failf "expected one copy-elim remark, got %d" (List.length rs))
    [
      (slice_base_written_src, "buffer of 'mat' may be written");
      (slice_index_reassigned_src, "index variable 'i' is assigned");
      (slice_overread_src, "is not provably in range");
    ]

(* The lines of the C function that [header] opens, up to its closing
   brace. *)
let c_function text header =
  let rec skip = function
    | [] -> Alcotest.failf "no %S in the emitted C" header
    | l :: rest when l = header -> take [ l ] rest
    | _ :: rest -> skip rest
  and take acc = function
    | "}" :: _ | [] -> String.concat "\n" (List.rev acc)
    | l :: rest -> take (l :: acc) rest
  in
  skip (String.split_on_char '\n' text)

(* -O0 means what it says: the slice copy is the pass's to drop.  When
   it is dropped, its index checks stay, and with them its declaration's
   #line row. *)
let test_slice_copy_pass_owns_fig1 () =
  let src = Eddy.Programs.fig1_with_slice_copy in
  List.iter2
    (fun (level, config) (kind, copies) ->
      Alcotest.(check bool)
        (level ^ ": one copy-elim remark, " ^ Support.Remark.kind_to_string kind)
        true
        (kinds (copy_elim_remarks ~config src) = [ kind ]);
      match Driver.compile_to_c ~config ~line_file:"fig1.mc" full src with
      | Driver.Ok_ text ->
          Alcotest.(check bool)
            (level ^ ": seriesMean allocates the slice")
            copies
            (is_infix ~affix:"mm_alloc"
               (c_function text
                  "mm_float seriesMean(mm_mat_float3 *mat, int i, int j) {"));
          Alcotest.(check bool)
            (level ^ ": #line row for the slice declaration")
            true
            (is_infix ~affix:"#line 3 \"fig1.mc\"" text)
      | Driver.Failed ds ->
          Alcotest.failf "emit failed: %s" (Driver.diags_to_string ds))
    (levels full)
    [ (Support.Remark.Applied, false); (Support.Remark.Skipped, true) ]

(* One blocker at a time, and shapes beyond the corpus.  [g] is the 3x4
   matrix a * 10 + b; a read past its row 1 lands in row 2 in place, but
   is out of bounds of the copy. *)
let test_slice_verdict_shapes () =
  let prog body =
    "int main() {\n\
    \  Matrix int <2> g = with ([0,0] <= [a,b] < [3,4]) genarray([3,4], a * \
     10 + b);\n" ^ body ^ "\n}"
  in
  let row = "Matrix int <1> row = g[1, :];\n" in
  let fold = "return with ([0] <= [k] < [dimSize(row, 0)]) fold (+, 0, row[k]);" in
  let loop body =
    "int total = 0;\n\
     for (int k = 0; k < dimSize(row, 0); k++) { " ^ body ^ " }\n\
     return total;"
  in
  let overread = `Error "index 5 out of bounds for dimension 0 of extent 4" in
  List.iter
    (fun (name, src, kind, expected) ->
      Alcotest.(check bool)
        (name ^ ": copy-elim " ^ Support.Remark.kind_to_string kind)
        true
        (kinds (copy_elim_remarks src) = [ kind ]);
      List.iter
        (fun (level, config) ->
          let label = name ^ " at " ^ level in
          match (Driver.run ~config full src [], expected) with
          | Driver.Ok_ (Interp.Eval.VScal (S.I n)), `Int e ->
              Alcotest.(check int) label e n
          | Driver.Failed ds, `Error e ->
              let text = Driver.diags_to_string ds in
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s (got: %s)" label e text)
                true (is_infix ~affix:e text)
          | Driver.Ok_ v, _ ->
              Alcotest.failf "%s: got %a" label Interp.Eval.pp_value v
          | Driver.Failed ds, _ ->
              Alcotest.failf "%s: run failed: %s" label
                (Driver.diags_to_string ds))
        (levels full))
    [
      ("for loop", prog (row ^ loop "total = total + row[k];"),
        Support.Remark.Applied, `Int 46);
      ("bound held in a float",
        prog
          (row
         ^ "float n = dimSize(row, 0);\n\
            int total = 0;\n\
            for (int k = 0; k < n; k++) { total = total + row[k]; }\n\
            return total;"),
        Support.Remark.Missed, `Int 46);
      ("loop index assigned", prog (row ^ loop "k = k + 2; total = total + row[k];"),
        Support.Remark.Missed, overread);
      ("loop index shadowed", prog (row ^ loop "int k = 5; total = total + row[k];"),
        Support.Remark.Missed, overread);
      ("generator index shadowed", slice_shadowed_overread_src,
        Support.Remark.Missed,
        `Error "index 4 out of bounds for dimension 0 of extent 4");
      ("slice written", prog (row ^ "row[0] = 99;\n" ^ fold),
        Support.Remark.Missed, `Int 135);
      ("base written", prog (row ^ "g[1, 0] = 100;\n" ^ fold),
        Support.Remark.Missed, `Int 46);
      ("index reassigned",
        prog ("int i = 0;\nMatrix int <1> row = g[i, :];\ni = 2;\n" ^ fold),
        Support.Remark.Missed, `Int 6);
      ("base shadowed",
        prog
          (row
         ^ "int total = 0;\n\
            {\n\
            Matrix int <2> g = with ([0,0] <= [a,b] < [3,4]) genarray([3,4], \
            1000);\n\
            total = with ([0] <= [k] < [dimSize(row, 0)]) fold (+, 0, row[k]);\n\
            }\n\
            return total;"),
        Support.Remark.Missed, `Int 46);
      ("aliased parameters",
        "int f(Matrix int <2> a, Matrix int <2> g) {\n" ^ row
        ^ "a[1, 0] = 500;\n" ^ fold
        ^ "\n}\n"
        ^ prog "return f(g, g);",
        Support.Remark.Missed, `Int 46);
    ]

(* --- indexing through the translator -------------------------------------------------- *)

let test_indexing_modes_via_programs () =
  let src =
    {|
int main() {
  Matrix int <1> v = init(Matrix int <1>, 6);
  for (int i = 0; i < 6; i++) { v[i] = i * 10; }
  Matrix int <1> odd = v[v % 20 == 10];
  Matrix int <1> head = v[0::2];
  Matrix int <2> m = init(Matrix int <2>, 3, 4);
  for (int i = 0; i < 3; i++) {
    for (int j = 0; j < 4; j++) { m[i, j] = i * 4 + j; }
  }
  Matrix int <1> row = m[1, :];
  Matrix int <1> lastcol = m[:, end];
  writeMatrix("odd.data", odd);
  writeMatrix("head.data", head);
  writeMatrix("row.data", row);
  writeMatrix("lastcol.data", lastcol);
  return 0;
}
|}
  in
  let dir = fresh_dir () in
  Runtime.Rc.reset ();
  ignore (run_ok ~c:full ~dir src);
  Alcotest.(check int) "no leaks" 0 (Runtime.Rc.live_count ());
  let fetch n = Interp.Eval.fetch_output ~dir n in
  let ndt = Alcotest.testable Nd.pp Nd.equal in
  Alcotest.check ndt "logical indexing" (Nd.vec_i [ 10; 30; 50 ]) (fetch "odd.data");
  Alcotest.check ndt "range indexing" (Nd.vec_i [ 0; 10; 20 ]) (fetch "head.data");
  Alcotest.check ndt "whole row" (Nd.vec_i [ 4; 5; 6; 7 ]) (fetch "row.data");
  Alcotest.check ndt "end column" (Nd.vec_i [ 3; 7; 11 ]) (fetch "lastcol.data")

let test_matrix_ops_via_programs () =
  let src =
    {|
int main() {
  Matrix float <2> a = init(Matrix float <2>, 2, 3);
  Matrix float <2> b = init(Matrix float <2>, 3, 2);
  for (int i = 0; i < 2; i++) {
    for (int j = 0; j < 3; j++) { a[i, j] = (float)(i * 3 + j + 1); }
  }
  for (int i = 0; i < 3; i++) {
    for (int j = 0; j < 2; j++) { b[i, j] = (float)(i * 2 + j + 7); }
  }
  Matrix float <2> c = a * b;
  Matrix float <2> d = a .* a;
  Matrix float <2> e = a + 1.0;
  Matrix float <2> f = 2.0 * a;
  writeMatrix("c.data", c);
  writeMatrix("d.data", d);
  writeMatrix("e.data", e);
  writeMatrix("f.data", f);
  return 0;
}
|}
  in
  let dir = fresh_dir () in
  Runtime.Rc.reset ();
  ignore (run_ok ~c:full ~dir src);
  Alcotest.(check int) "no leaks" 0 (Runtime.Rc.live_count ());
  let fetch n = Interp.Eval.fetch_output ~dir n in
  let ndt = Alcotest.testable Nd.pp Nd.equal in
  Alcotest.check ndt "matmul"
    (Nd.of_float_array [| 2; 2 |] [| 58.; 64.; 139.; 154. |])
    (fetch "c.data");
  Alcotest.check ndt "elementwise .*"
    (Nd.of_float_array [| 2; 3 |] [| 1.; 4.; 9.; 16.; 25.; 36. |])
    (fetch "d.data");
  Alcotest.check ndt "matrix + scalar"
    (Nd.of_float_array [| 2; 3 |] [| 2.; 3.; 4.; 5.; 6.; 7. |])
    (fetch "e.data");
  Alcotest.check ndt "scalar * matrix"
    (Nd.of_float_array [| 2; 3 |] [| 2.; 4.; 6.; 8.; 10.; 12. |])
    (fetch "f.data")

let test_fold_variants () =
  let src =
    {|
int main() {
  Matrix int <1> v = init(Matrix int <1>, 5);
  for (int i = 0; i < 5; i++) { v[i] = i + 1; }
  int s = with ([0] <= [i] < [5]) fold (+, 0, v[i]);
  int pr = with ([0] <= [i] < [5]) fold (*, 1, v[i]);
  int mn = with ([0] <= [i] < [5]) fold (min, 999, v[i]);
  int mx = with ([0] <= [i] < [5]) fold (max, -999, v[i]);
  return s * 1000000 + pr * 1000 + mn * 100 + mx;
}
|}
  in
  match run_ok ~c:full src with
  | Interp.Eval.VScal (S.I r) ->
      Alcotest.(check int) "sum/prod/min/max" ((15 * 1000000) + (120 * 1000) + 100 + 5) r
  | v -> Alcotest.failf "got %a" Interp.Eval.pp_value v

let test_generator_bounds_variants () =
  (* non-zero lower bounds and <= upper bounds *)
  let src =
    {|
int main() {
  int s1 = with ([2] <= [i] < [5]) fold (+, 0, i);
  int s2 = with ([2] <= [i] <= [5]) fold (+, 0, i);
  int s3 = with ([0] < [i] < [4]) fold (+, 0, i);
  return s1 * 10000 + s2 * 100 + s3;
}
|}
  in
  match run_ok ~c:full src with
  | Interp.Eval.VScal (S.I r) ->
      Alcotest.(check int) "bounds semantics" ((9 * 10000) + (14 * 100) + 6) r
  | v -> Alcotest.failf "got %a" Interp.Eval.pp_value v

let test_genarray_subset_region () =
  (* "the shape in the operation must be a superset of the indexes in the
     generator … the programmer can perform these operations on subsets of
     a matrix" — untouched cells are 0. *)
  let src =
    {|
int main() {
  Matrix int <2> m = with ([1,1] <= [i,j] < [3,3]) genarray([4,4], i * 10 + j);
  writeMatrix("m.data", m);
  return 0;
}
|}
  in
  let dir = fresh_dir () in
  ignore (run_ok ~c:full ~dir src);
  let m = Interp.Eval.fetch_output ~dir "m.data" in
  Alcotest.(check (array int)) "shape" [| 4; 4 |] (Nd.shape m);
  Alcotest.(check bool) "inside region" true
    (S.equal (Nd.get m [| 2; 1 |]) (S.I 21));
  Alcotest.(check bool) "outside region zero" true
    (S.equal (Nd.get m [| 0; 0 |]) (S.I 0)
    && S.equal (Nd.get m [| 3; 3 |]) (S.I 0))

(* Auto-par leaves no parallel region inside a function that only runs
   inside one, so on a pool the interpreter never meets a nested region
   (which would run inline, paying the region entry for nothing). *)
let test_no_nested_regions () =
  let ssh, _ = Eddy.Ssh_gen.generate ~lat:8 ~lon:9 ~time:4 ~n_eddies:2 ~seed:7 () in
  let trough =
    Nd.init_float [| 2; 3; 40 |] (fun ix ->
        let fk = float_of_int ix.(2) in
        if ix.(2) < 10 then 1.0 +. (0.01 *. fk)
        else if ix.(2) < 20 then 1.1 -. (0.1 *. (fk -. 10.))
        else if ix.(2) < 30 then 0.1 +. (0.1 *. (fk -. 20.))
        else 1.1 -. (0.005 *. (fk -. 30.)))
  in
  let eddy_energy =
    In_channel.with_open_text "../examples/eddy_energy.mc" In_channel.input_all
  in
  List.iter
    (fun (name, src, inputs) ->
      let dir = fresh_dir () in
      List.iter (fun (p, m) -> Interp.Eval.provide_input ~dir p m) inputs;
      Support.Telemetry.reset ();
      Support.Telemetry.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Support.Telemetry.set_enabled false)
        (fun () ->
          Runtime.Pool.with_pool 3 (fun pool ->
              ignore (run_ok ~c:full ~dir ~pool ~auto_par:true src));
          Alcotest.(check bool) (name ^ ": regions ran") true
            (Support.Telemetry.read Runtime.Pool.c_jobs > 0);
          Alcotest.(check int) (name ^ ": nested inline runs") 0
            (Support.Telemetry.read Runtime.Pool.c_nested)))
    [
      ("fig8_scoring", Eddy.Programs.fig8_scoring, [ ("ssh.data", trough) ]);
      ("eddy_energy", eddy_energy, []);
      ( "fig4_conncomp",
        Eddy.Programs.fig4_conncomp,
        [
          ("ssh.data", ssh);
          ("dates.data", Nd.init_int [| 4 |] (fun ix -> 1012000 + ix.(0)));
        ] );
    ]

let suite =
  [
    Alcotest.test_case "composition reports pass" `Quick test_composition_reports;
    Alcotest.test_case "tuples fails isComposable (paper §VI-A)" `Quick
      test_tuples_fails_iscomposable;
    Alcotest.test_case "composition theorem on real extensions" `Quick
      test_composition_theorem_subsets;
    Alcotest.test_case "extension keywords usable as identifiers" `Quick
      test_keywords_usable_as_identifiers;
    Alcotest.test_case "plain C unaffected by extensions" `Quick
      test_plain_c_unaffected;
    Alcotest.test_case "matrix syntax requires extension" `Quick
      test_matrix_syntax_requires_extension;
    Alcotest.test_case "host-language programs" `Quick test_host_programs;
    Alcotest.test_case "tuples (host-packaged)" `Quick test_tuples_host_packaged;
    Alcotest.test_case "domain-specific semantic errors" `Quick
      test_semantic_errors;
    Alcotest.test_case "Fig 3 golden C" `Quick test_fig3_golden_c;
    Alcotest.test_case "Fig 10/11 golden C" `Quick test_fig10_fig11_golden_c;
    Alcotest.test_case "Fig 1 runs (oracle + no leaks)" `Quick test_fig1_run;
    Alcotest.test_case "Fig 9 transformed run" `Quick test_fig9_run_matches_fig1;
    Alcotest.test_case "Fig 1 parallel run (pool)" `Quick test_fig1_parallel_run;
    Alcotest.test_case "library-style (unfused) lowering" `Quick
      test_fig1_unfused_matches;
    Alcotest.test_case "Fig 8 eddy scoring vs oracle" `Quick test_fig8_run_vs_oracle;
    Alcotest.test_case "Fig 4 connComp vs union-find" `Quick test_fig4_run_vs_oracle;
    Alcotest.test_case "slice-copy elimination (§III-A5)" `Quick
      test_slice_copy_elimination;
    Alcotest.test_case "slice copies keep copy semantics" `Quick
      test_slice_copy_semantics;
    Alcotest.test_case "slice declarations are typechecked" `Quick
      test_slice_declaration_typechecked;
    Alcotest.test_case "copy-elim names what blocks a slice" `Quick
      test_slice_blockers_explained;
    Alcotest.test_case "-O0 keeps Fig 1's slice copy" `Quick
      test_slice_copy_pass_owns_fig1;
    Alcotest.test_case "slice verdict: loops, shadowing, aliasing" `Quick
      test_slice_verdict_shapes;
    Alcotest.test_case "indexing modes via programs" `Quick
      test_indexing_modes_via_programs;
    Alcotest.test_case "matrix operators via programs" `Quick
      test_matrix_ops_via_programs;
    Alcotest.test_case "fold operators" `Quick test_fold_variants;
    Alcotest.test_case "generator bound variants" `Quick
      test_generator_bounds_variants;
    Alcotest.test_case "genarray subset region" `Quick test_genarray_subset_region;
    Alcotest.test_case "auto-par: no nested regions on the pool" `Quick
      test_no_nested_regions;
  ]

let _ = matrix_only
