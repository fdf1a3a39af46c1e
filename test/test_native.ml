(* Native backend execution: the emitted C compiled by the system C
   compiler and run as a real binary must agree with the reference
   interpreter bit-for-bit — on every corpus program, under every
   optimization-flag configuration, on randomized program shapes, and
   through the readMatrix/writeMatrix container files.  Plus the binary
   cache (hit on rerun, invalidation on flag change), --keep-c
   standalone recompiles, warning-clean emission under -Werror, and
   graceful degradation when there is no C compiler at all.

   Every case needing a real compiler probes first and skips visibly
   when none is available. *)

module Nd = Runtime.Ndarray
module S = Runtime.Scalar

let full = Driver.compose [ Driver.matrix; Driver.transform; Driver.refptr ]

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let fresh_dir () =
  let d = Filename.temp_file "mmnat" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

(* One cache for the whole suite: after the first case compiles a corpus
   program, later cases re-running it hit the cache instead of cc. *)
let suite_cache = lazy (fresh_dir ())

let ensure_cc () =
  match Native.Toolchain.probe () with
  | Ok tc -> tc
  | Error e ->
      Printf.printf "SKIP: no C compiler (%s)\n%!"
        (Native.Toolchain.describe_error e);
      Alcotest.skip ()

(* --- interp-vs-native differential harness ----------------------------- *)

let rec value_eq (i : Interp.Eval.value) (n : Native.Exec.value) =
  match (i, n) with
  | Interp.Eval.VUnit, Native.Exec.RVoid -> true
  | Interp.Eval.VNull, Native.Exec.RNull -> true
  | Interp.Eval.VScal a, Native.Exec.RScal b -> a = b
  | Interp.Eval.VMat a, Native.Exec.RMat b -> Nd.equal (Runtime.Rc.get a) b
  | Interp.Eval.VTuple a, Native.Exec.RTuple b ->
      Array.length a = Array.length b && Array.for_all2 value_eq a b
  | _ -> false

let data_bytes ~dir path =
  In_channel.with_open_bin (Interp.Eval.data_path ~dir path)
    In_channel.input_all

(* Run [src] through both backends with identical inputs (the native
   binary on [threads] OpenMP threads, the interpreter on a pool of
   [interp_threads], default the same) and check that the result value,
   the live-allocation count and every output file agree exactly (matrix files byte for byte: a parsed comparison would
   take -0.0 for 0.0 and miss NaN payloads). *)
let differential ?(fuse = true) ?(copy_elim = true) ?(auto_par = false)
    ?(threads = 1) ?interp_threads ?cc ?(cflags = []) ~name ~inputs ~outputs
    src =
  let interp_threads = Option.value interp_threads ~default:threads in
  ignore (ensure_cc ());
  let dir_i = fresh_dir () and dir_n = fresh_dir () in
  List.iter
    (fun (p, m) ->
      Interp.Eval.provide_input ~dir:dir_i p m;
      Interp.Eval.provide_input ~dir:dir_n p m)
    inputs;
  Runtime.Rc.reset ();
  let config =
    let open Driver.Pipeline in
    enable
      (enable (enable (Driver.default_config full) "fuse" fuse) "copy-elim"
         copy_elim)
      "auto-par" auto_par
  in
  let run_interp pool =
    match
      Driver.run ~dir:dir_i ~config ?pool full src []
    with
    | Driver.Ok_ v -> v
    | Driver.Failed ds ->
        Alcotest.failf "%s: interp failed: %s" name (Driver.diags_to_string ds)
  in
  let iv =
    if interp_threads > 1 then
      Runtime.Pool.with_pool interp_threads (fun p -> run_interp (Some p))
    else run_interp None
  in
  let ilive = Runtime.Rc.live_count () in
  let nv =
    match
      Driver.exec ~dir:dir_n ~config ~threads ?cc ~cflags
        ~cache_dir:(Lazy.force suite_cache) (Driver.Composed full) src
    with
    | Driver.Ok_ o -> o
    | Driver.Failed ds ->
        Alcotest.failf "%s: native failed: %s" name (Driver.diags_to_string ds)
  in
  if not (value_eq iv nv.Native.Exec.value) then
    Alcotest.failf "%s: value mismatch: interp=%a native=%a" name
      Interp.Eval.pp_value iv Native.Exec.pp_value nv.Native.Exec.value;
  Alcotest.(check int) (name ^ ": live allocations at exit") ilive
    nv.Native.Exec.live;
  List.iter
    (fun out ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: output %s byte-identical" name out)
        true
        (data_bytes ~dir:dir_i out = data_bytes ~dir:dir_n out))
    outputs

(* --- corpus inputs ------------------------------------------------------ *)

let cube3 m n p =
  Nd.init_float [| m; n; p |] (fun ix ->
      float_of_int ((100 * ix.(0)) + (10 * ix.(1)))
      +. (0.5 *. float_of_int ix.(2)))

(* The planted trough signature of Fig 7, so fig8's scoring has real work. *)
let trough_cube () =
  let ts k =
    let fk = float_of_int k in
    if k < 10 then 1.0 +. (0.01 *. fk)
    else if k < 20 then 1.1 -. (0.1 *. (fk -. 10.))
    else if k < 30 then 0.1 +. (0.1 *. (fk -. 20.))
    else 1.1 -. (0.005 *. (fk -. 30.))
  in
  Nd.init_float [| 2; 3; 40 |] (fun ix -> ts ix.(2))

let example name =
  In_channel.with_open_text (Filename.concat "../examples" name)
    In_channel.input_all

(* --- per-corpus-program differentials ----------------------------------- *)

let test_fig1 () =
  differential ~name:"fig1" ~inputs:[ ("ssh.data", cube3 3 5 7) ]
    ~outputs:[ "means.data" ] Eddy.Programs.fig1_temporal_mean

let test_fig9 () =
  differential ~name:"fig9" ~inputs:[ ("ssh.data", cube3 4 12 6) ]
    ~outputs:[ "means.data" ] Eddy.Programs.fig9_transformed

let test_fig8 () =
  differential ~name:"fig8" ~inputs:[ ("ssh.data", trough_cube ()) ]
    ~outputs:[ "temporalScores.data" ] Eddy.Programs.fig8_scoring

let test_fig4 () =
  let ssh, _ = Eddy.Ssh_gen.generate ~lat:12 ~lon:14 ~time:4 ~n_eddies:2 ~seed:7 () in
  let dates = Nd.init_int [| 4 |] (fun ix -> 1012000 + ix.(0)) in
  differential ~name:"fig4"
    ~inputs:[ ("ssh.data", ssh); ("dates.data", dates) ]
    ~outputs:[ "eddyLabels.data" ] Eddy.Programs.fig4_conncomp

let test_fig1_slice () =
  differential ~name:"fig1_slice" ~inputs:[ ("ssh.data", cube3 3 4 6) ]
    ~outputs:[ "means.data" ] Eddy.Programs.fig1_with_slice_copy

let test_tiling_example () =
  differential ~name:"transform_tiling" ~inputs:[] ~outputs:[]
    (example "transform_tiling.mc")

(* The acceptance program, under every optimization configuration:
   default, fusion off, copy elimination off, and auto-parallelized with
   real OpenMP threads. *)
let test_eddy_flag_matrix () =
  let src = example "eddy_energy.mc" in
  List.iter
    (fun (fuse, copy_elim, auto_par, threads, tag) ->
      differential
        ~name:("eddy_energy/" ^ tag)
        ~fuse ~copy_elim ~auto_par ~threads ~inputs:[] ~outputs:[] src)
    [
      (true, true, false, 1, "default");
      (false, true, false, 1, "no-fuse");
      (true, false, false, 1, "no-copy-elim");
      (true, true, true, 2, "auto-par");
    ]

(* --- result-protocol shapes --------------------------------------------- *)

(* Every value shape the protocol can carry: float, bool, void, matrix,
   NULL and tuple results all round-trip into what the interpreter
   returns (including the returned matrix counting as live on both
   sides).  A returned value converts to the function's declared type,
   as an initialiser does. *)
let test_result_shapes () =
  List.iter
    (fun (name, src) -> differential ~name ~inputs:[] ~outputs:[] src)
    [
      ("ret-float", "float main() { return 1.5 / 3.0; }");
      ("ret-bool", "bool main() { return 3 > 2; }");
      ("ret-void", "void main() { int x = 1; return; }");
      ( "ret-mat",
        {|
Matrix int <1> main() {
  Matrix int <1> v = init(Matrix int <1>, 5);
  for (int i = 0; i < 5; i++) { v[i] = i * i; }
  return v;
}
|} );
      ("ret-null", "Matrix int <1> main() { Matrix int <1> v; return v; }");
      ( "ret-tuple",
        {|
(int, float) pair() { return (7, 2.5); }
int main() {
  int a = 0;
  float b = 0.0;
  (a, b) = pair();
  return a;
}
|} );
      ("ret-int-of-float", "int main() { return 2.75; }");
      ( "ret-int-of-float-call",
        "int f() { return 2.75; }\nint main() { return f() * 2; }" );
      ( "ret-float-of-int",
        "float g(int x) { return x / 2; }\n\
         float main() { return g(5) + 0.25; }" );
    ]

(* Tuple-valued entry: the harness prints the struct field by field. *)
let test_tuple_entry () =
  differential ~name:"tuple-entry" ~inputs:[] ~outputs:[]
    "(int, float) main() { return (7, 2.5); }"

(* int and bool matrices through writeMatrix: the native MMAT3 container
   must be byte-compatible with the interpreter's reader. *)
let test_write_matrix_kinds () =
  differential ~name:"write-kinds" ~inputs:[]
    ~outputs:[ "ints.data"; "bools.data" ]
    {|
int main() {
  Matrix int <2> v = with ([0,0] <= [i,j] < [3,4]) genarray([3,4], i * 10 - j);
  Matrix bool <2> m = v >= 5;
  writeMatrix("ints.data", v);
  writeMatrix("bools.data", m);
  return dimSize(v, 0);
}
|}

(* --- byte-exact matrix files ---------------------------------------------- *)

(* Edge values for every element kind: the float bit patterns of the
   runtime suite's property (±0, ±inf, NaN payloads, subnormals, the
   int64 extremes), the extremes of a native int (32-bit), and a
   zero-extent cube. *)
let edge_inputs =
  let bits = Array.of_list Test_runtime.edge_bits in
  [
    ( "f.data",
      Nd.of_float_array [| Array.length bits |]
        (Array.map Int64.float_of_bits bits) );
    ( "i.data",
      Nd.of_int_array [| 8 |]
        [| 0; -1; 9; -10; 100; 2147483647; -2147483648; 42 |] );
    ("b.data", Nd.of_bool_array [| 5 |] [| true; false; false; true; true |]);
    ("z.data", Nd.init_float [| 3; 0; 2 |] (fun _ -> 1.0));
  ]

(* readMatrix then writeMatrix of every edge input. *)
let roundtrip_src =
  {|
int main() {
  Matrix float <1> f = readMatrix("f.data");
  Matrix int <1> i = readMatrix("i.data");
  Matrix bool <1> b = readMatrix("b.data");
  Matrix float <3> z = readMatrix("z.data");
  writeMatrix("out_f.data", f);
  writeMatrix("out_i.data", i);
  writeMatrix("out_b.data", b);
  writeMatrix("out_z.data", z);
  return 0;
}
|}

(* Run [roundtrip_src] with [run ~dir] ([Driver.run] or [Driver.exec])
   in a fresh [dir] holding the edge inputs, then compare each output
   with its input byte for byte. *)
let check_roundtrip ~label run =
  let dir = fresh_dir () in
  List.iter (fun (p, m) -> Interp.Eval.provide_input ~dir p m) edge_inputs;
  (match run ~dir with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds ->
      Alcotest.failf "%s: roundtrip failed: %s" label
        (Driver.diags_to_string ds));
  List.iter
    (fun (p, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: out_%s reproduces %s byte for byte" label p p)
        true
        (data_bytes ~dir p = data_bytes ~dir ("out_" ^ p)))
    edge_inputs

let test_roundtrip_bytes () =
  ignore (ensure_cc ());
  check_roundtrip ~label:"interp" (fun ~dir ->
      Driver.run ~dir full roundtrip_src []);
  check_roundtrip ~label:"native" (fun ~dir ->
      Driver.exec ~dir ~cache_dir:(Lazy.force suite_cache) (Driver.Composed full) roundtrip_src)

(* --- randomized differential property ----------------------------------- *)

(* 20+ random program shapes (dims and coefficients baked into the
   source), each compiled at -O0 for speed and compared exactly. *)
let prop_random_shapes =
  QCheck.Test.make ~name:"random-shape programs match natively" ~count:20
    QCheck.(
      make
        Gen.(
          let* m = 1 -- 5 and* n = 1 -- 5 and* p = 1 -- 5 in
          let* a = 0 -- 9 and* b = 0 -- 9 in
          return (m, n, p, a, b)))
    (fun (m, n, p, a, b) ->
      let src =
        Printf.sprintf
          {|
float main() {
  Matrix float <3> g =
    with ([0,0,0] <= [i,j,k] < [%d,%d,%d])
    genarray([%d,%d,%d], (%d * i + %d * j + k) / 4.0);
  return with ([0,0,0] <= [i,j,k] < [%d,%d,%d]) fold (+, 0.0, g[i,j,k]);
}
|}
          m n p m n p a b m n p
      in
      ignore (ensure_cc ());
      let iv =
        match Driver.run full src [] with
        | Driver.Ok_ v -> v
        | Driver.Failed ds ->
            QCheck.Test.fail_reportf "interp failed: %s"
              (Driver.diags_to_string ds)
      in
      match
        Driver.exec ~cache_dir:(Lazy.force suite_cache) ~cflags:[ "-O0" ]
          (Driver.Composed full) src
      with
      | Driver.Ok_ o -> value_eq iv o.Native.Exec.value
      | Driver.Failed ds ->
          QCheck.Test.fail_reportf "native failed: %s"
            (Driver.diags_to_string ds))

(* --- binary cache -------------------------------------------------------- *)

let exec_eddy ?cflags ?cache_dir () =
  let src = example "eddy_energy.mc" in
  match Driver.exec ?cflags ?cache_dir (Driver.Composed full) src with
  | Driver.Ok_ o -> o
  | Driver.Failed ds -> Alcotest.failf "exec failed: %s" (Driver.diags_to_string ds)

let test_cache_hit_on_rerun () =
  ignore (ensure_cc ());
  let cache_dir = fresh_dir () in
  let first = exec_eddy ~cache_dir () in
  Alcotest.(check bool) "first run compiles" false first.Native.Exec.from_cache;
  let second = exec_eddy ~cache_dir () in
  Alcotest.(check bool) "second run hits cache" true
    second.Native.Exec.from_cache;
  Alcotest.(check string) "same binary" first.Native.Exec.exe
    second.Native.Exec.exe

let test_cache_invalidation_on_flag_change () =
  ignore (ensure_cc ());
  let cache_dir = fresh_dir () in
  let first = exec_eddy ~cache_dir () in
  let changed = exec_eddy ~cache_dir ~cflags:[ "-DMM_SALT=1" ] () in
  Alcotest.(check bool) "changed flags recompile" false
    changed.Native.Exec.from_cache;
  Alcotest.(check bool) "different binary" true
    (first.Native.Exec.exe <> changed.Native.Exec.exe);
  let again = exec_eddy ~cache_dir ~cflags:[ "-DMM_SALT=1" ] () in
  Alcotest.(check bool) "same flags hit again" true
    again.Native.Exec.from_cache

let test_cache_counters_exported () =
  ignore (ensure_cc ());
  Support.Telemetry.reset ();
  Support.Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Support.Telemetry.set_enabled false)
  @@ fun () ->
  let cache_dir = fresh_dir () in
  ignore (exec_eddy ~cache_dir ());
  ignore (exec_eddy ~cache_dir ());
  let counter n =
    Option.value ~default:0 (List.assoc_opt n (Support.Telemetry.counters ()))
  in
  Alcotest.(check int) "cache.hit" 1 (counter "cache.hit");
  Alcotest.(check int) "cache.miss" 1 (counter "cache.miss")

(* --- toolchain edge cases ------------------------------------------------ *)

let test_missing_compiler_graceful () =
  (* Needs no real compiler: a nonexistent one must produce a structured
     diagnostic, not an exception or a crash. *)
  match
    Driver.exec ~cc:"mmc-definitely-not-a-compiler"
      ~cache_dir:(fresh_dir ()) (Driver.Composed full) "int main() { return 3; }"
  with
  | Driver.Ok_ _ -> Alcotest.fail "expected a missing-compiler failure"
  | Driver.Failed ds ->
      let text = Driver.diags_to_string ds in
      Alcotest.(check bool)
        (Printf.sprintf "diagnostic names the compiler (got: %s)" text)
        true
        (is_infix ~affix:"no working C compiler" text)

let test_runtime_failure_taxonomy () =
  ignore (ensure_cc ());
  (* readMatrix on a missing file: the binary exits 70 with an mm_runtime
     message, which must come back as a native-run diagnostic naming the
     file — mirroring the interpreter's readMatrix diagnostic. *)
  match
    Driver.exec ~dir:(fresh_dir ()) ~cache_dir:(Lazy.force suite_cache) (Driver.Composed full)
      Eddy.Programs.fig1_temporal_mean
  with
  | Driver.Ok_ _ -> Alcotest.fail "expected a runtime failure"
  | Driver.Failed ds ->
      let text = Driver.diags_to_string ds in
      Alcotest.(check bool)
        (Printf.sprintf "diagnostic names readMatrix (got: %s)" text)
        true
        (is_infix ~affix:"readMatrix" text)

(* --- keep-c / standalone compile ----------------------------------------- *)

let test_keep_c_standalone_recompile () =
  let tc = ensure_cc () in
  let keep_dir = fresh_dir () in
  let keep_c = Filename.concat keep_dir "prog.c" in
  let data_dir = fresh_dir () in
  let o =
    match
      Driver.exec ~dir:data_dir ~keep_c ~cache_dir:(Lazy.force suite_cache)
        (Driver.Composed full) (example "eddy_energy.mc")
    with
    | Driver.Ok_ o -> o
    | Driver.Failed ds ->
        Alcotest.failf "exec failed: %s" (Driver.diags_to_string ds)
  in
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " kept") true
        (Sys.file_exists (Filename.concat keep_dir f)))
    [ "prog.c"; "mm_runtime.h"; "mm_runtime.c" ];
  (* The kept sources must recompile on their own — no cache, no driver —
     and produce the same result protocol. *)
  let exe = Filename.concat keep_dir "prog.exe" in
  (match
     Native.Toolchain.compile tc
       ~c_files:[ keep_c; Filename.concat keep_dir "mm_runtime.c" ]
       ~out:exe
   with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "standalone recompile failed: %s"
        (Native.Toolchain.describe_error e));
  let out = Filename.temp_file "mmnat" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "cd %s && %s > %s" (Filename.quote data_dir)
         (Filename.quote exe) (Filename.quote out))
  in
  Alcotest.(check int) "standalone binary exits 0" 0 code;
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  match Native.Exec.parse_output text with
  | Ok (v, live, _) ->
      Alcotest.(check bool) "standalone result identical" true
        (v = o.Native.Exec.value);
      Alcotest.(check int) "standalone live identical" o.Native.Exec.live live
  | Error e ->
      Alcotest.failf "standalone output unparseable: %s"
        (Native.Exec.describe_error e)

(* --- compile-check golden: warning-clean emission ------------------------ *)

let test_corpus_compiles_werror () =
  let tc = ensure_cc () in
  let build = fresh_dir () in
  let werror = { tc with Native.Toolchain.cflags = [ "-Werror" ] } in
  List.iteri
    (fun i (name, src) ->
      match Driver.compile_to_c ~exec_harness:true full src with
      | Driver.Failed ds ->
          Alcotest.failf "%s: emit failed: %s" name (Driver.diags_to_string ds)
      | Driver.Ok_ c_text -> (
          let c_files =
            Native.Cache.write_sources ~dir:build ~k:(Printf.sprintf "p%d" i)
              c_text
          in
          match
            Native.Toolchain.compile werror ~c_files
              ~out:(Filename.concat build (Printf.sprintf "p%d.exe" i))
          with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "%s not warning-clean under -Werror: %s" name
                (Native.Toolchain.describe_error e)))
    [
      ("fig1", Eddy.Programs.fig1_temporal_mean);
      ("fig4", Eddy.Programs.fig4_conncomp);
      ("fig8", Eddy.Programs.fig8_scoring);
      ("fig9", Eddy.Programs.fig9_transformed);
      ("fig1_slice", Eddy.Programs.fig1_with_slice_copy);
      ("eddy_energy", example "eddy_energy.mc");
      ("transform_tiling", example "transform_tiling.mc");
    ]

(* --- compiler runs per invocation ----------------------------------------- *)

(* A --cc wrapper that logs each invocation's arguments, one line per
   run, before handing over to the real compiler. *)
let counting_cc real_cc =
  let dir = fresh_dir () in
  let log = Filename.concat dir "cc.log" in
  let script = Filename.concat dir "cc.sh" in
  Out_channel.with_open_text script (fun oc ->
      Printf.fprintf oc "#!/bin/sh\necho \"$*\" >> %s\nexec %s \"$@\"\n"
        (Filename.quote log) real_cc);
  Unix.chmod script 0o755;
  let runs () =
    if Sys.file_exists log then
      In_channel.with_open_text log In_channel.input_lines
    else []
  in
  (script, runs)

(* The loader is linked once per cache directory and configuration, each
   program compiled once into a shared object, and a binary-cache hit
   runs no compiler at all.  Compiles come first: the toolchain probe
   runs only after one fails, and a compiler whose -fopenmp works never
   fails the first one. *)
let test_compiler_runs_per_invocation () =
  let tc = ensure_cc () in
  let openmp = Native.Toolchain.uses_openmp tc in
  let cc, runs = counting_cc tc.Native.Toolchain.cc in
  let cache_dir = fresh_dir () in
  (* the program returning [n]'s outcome, and the cc runs it took *)
  let exec_raw ?cache n =
    let src = Printf.sprintf "int main() { return %d; }" n in
    let before = List.length (runs ()) in
    let o = Driver.exec ~cc ?cache ~cache_dir (Driver.Composed full) src in
    (o, List.filteri (fun i _ -> i >= before) (runs ()))
  in
  let exec_o ?cache n =
    match exec_raw ?cache n with
    | Driver.Ok_ o, cc_runs ->
        Alcotest.(check string)
          (Printf.sprintf "program %d result" n)
          (string_of_int n)
          (Fmt.str "%a" Native.Exec.pp_value o.Native.Exec.value);
        (o, cc_runs)
    | Driver.Failed ds, _ ->
        Alcotest.failf "exec failed: %s" (Driver.diags_to_string ds)
  in
  let exec ?cache n = snd (exec_o ?cache n) in
  let loader_builds = List.filter (is_infix ~affix:"mm_loader.c") in
  let program_builds = List.filter (is_infix ~affix:"-shared") in
  let probes = List.filter (is_infix ~affix:"probe.c") in
  (* The first, cold exec under this fresh compiler name. *)
  Support.Telemetry.reset ();
  Support.Telemetry.set_enabled true;
  let first =
    Fun.protect
      ~finally:(fun () -> Support.Telemetry.set_enabled false)
      (fun () -> exec 41)
  in
  let probe_spans =
    List.length
      (List.filter
         (fun (sp : Support.Telemetry.span) ->
           sp.Support.Telemetry.sp_name = "native.probe")
         (Support.Telemetry.spans ()))
  in
  let openmp_gauge =
    List.assoc_opt "native.openmp" (Support.Telemetry.gauges ())
  in
  Support.Telemetry.reset ();
  let last = List.nth first (List.length first - 1) in
  Alcotest.(check bool) "first exec builds the program last" true
    (program_builds [ last ] <> [] && loader_builds [ last ] = []);
  if openmp then begin
    Alcotest.(check int) "first exec builds the loader, then the program" 2
      (List.length first);
    Alcotest.(check bool) "... the loader first" true
      (loader_builds [ List.hd first ] <> []);
    Alcotest.(check int) "... and records no native.probe span" 0 probe_spans;
    Alcotest.(check (option (float 0.))) "... native.openmp" (Some 1.)
      openmp_gauge
  end
  else begin
    (* the -fopenmp build of the loader fails, the probe compiles its
       empty program with and without -fopenmp, and the loader is
       rebuilt without *)
    Alcotest.(check int) "first exec builds the loader twice" 2
      (List.length (loader_builds first));
    Alcotest.(check bool) "... first under -fopenmp" true
      (is_infix ~affix:"-fopenmp" (List.hd (loader_builds first)));
    Alcotest.(check int) "... probes with and without -fopenmp" 2
      (List.length (probes first));
    Alcotest.(check bool) "... then rebuilds it without" false
      (is_infix ~affix:"-fopenmp" (List.nth (loader_builds first) 1));
    Alcotest.(check int) "... and runs nothing else" 5 (List.length first);
    Alcotest.(check int) "... under one native.probe span" 1 probe_spans;
    Alcotest.(check (option (float 0.))) "... native.openmp" (Some 0.)
      openmp_gauge
  end;
  let second = exec 42 in
  Alcotest.(check int) "a second program runs cc once" 1 (List.length second);
  Alcotest.(check bool) "... into a shared object, with no runtime source" true
    (program_builds second <> []
    && not (is_infix ~affix:"mm_runtime.c" (List.hd second)));
  Alcotest.(check (list string)) "re-running either program runs no cc" []
    (exec 41 @ exec 42);
  (* The same hit from a fresh mmc process, whose probe memo is empty. *)
  let mmc = Filename.concat (Filename.concat ".." "bin") "mmc.exe" in
  if Sys.file_exists mmc then begin
    let dir = fresh_dir () in
    let prog = Filename.concat dir "prog.mc" in
    Out_channel.with_open_text prog (fun oc ->
        output_string oc "int main() { return 41; }");
    let before = List.length (runs ()) in
    let code =
      Sys.command
        (Printf.sprintf
           "%s exec -x matrix -x transform -x refptr --cc %s --cache-dir %s %s \
            > %s"
           (Filename.quote mmc) (Filename.quote cc) (Filename.quote cache_dir)
           (Filename.quote prog)
           (Filename.quote (Filename.concat dir "out")))
    in
    Alcotest.(check int) "mmc exec hit exits 0" 0 code;
    Alcotest.(check string) "mmc exec hit result" "result: 41\n"
      (In_channel.with_open_text (Filename.concat dir "out")
         In_channel.input_all);
    Alcotest.(check int) "an mmc exec hit runs no cc" before
      (List.length (runs ()))
  end;
  (* A truncated program fails the next exec once, with the loader's
     dlerror() text and no compile; --no-cache rebuilds it. *)
  let so = (fst (exec_o 41)).Native.Exec.exe in
  Unix.truncate so ((Unix.stat so).Unix.st_size / 2);
  (match exec_raw 41 with
  | Driver.Ok_ _, _ -> Alcotest.fail "a truncated program loaded"
  | Driver.Failed ds, cc_runs ->
      let text = Driver.diags_to_string ds in
      Alcotest.(check int) "a truncated program fails once" 1 (List.length ds);
      Alcotest.(check bool)
        (Printf.sprintf "... with the loader's text (got: %s)" text)
        true
        (is_infix ~affix:("mm_loader: " ^ so) text);
      Alcotest.(check (list string)) "... and runs no cc" [] cc_runs);
  Alcotest.(check int) "cache:false rebuilds the loader and the program" 2
    (List.length (exec ~cache:false 41));
  Alcotest.(check (list string)) "... and the next exec hits" [] (exec 41)

(* --- the no-OpenMP fallback ------------------------------------------------ *)

(* A C compiler that rejects -fopenmp: the failed compile runs the
   probe, which falls back to plain C with the pragmas silenced, and at
   two threads the programs still compile warning-clean and agree with
   the interpreter. *)
let test_no_openmp_fallback () =
  let tc = ensure_cc () in
  let cc = Filename.concat (fresh_dir ()) "cc.sh" in
  Out_channel.with_open_text cc (fun oc ->
      Printf.fprintf oc
        "#!/bin/sh\n\
         for a in \"$@\"; do [ \"$a\" = -fopenmp ] && exit 1; done\n\
         exec %s \"$@\"\n"
        (Filename.quote tc.Native.Toolchain.cc));
  Unix.chmod cc 0o755;
  Support.Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Support.Telemetry.set_enabled false;
      Support.Telemetry.reset ())
  @@ fun () ->
  List.iter
    (fun (name, inputs, outputs, src) ->
      Support.Telemetry.reset ();
      differential ~auto_par:true ~threads:2 ~cc ~cflags:[ "-Werror" ] ~name
        ~inputs ~outputs src;
      Alcotest.(check (option (float 0.)))
        (name ^ ": native.openmp") (Some 0.)
        (List.assoc_opt "native.openmp" (Support.Telemetry.gauges ())))
    [
      ("eddy_energy", [], [], example "eddy_energy.mc");
      ( "fig1",
        [ ("ssh.data", cube3 3 5 7) ],
        [ "means.data" ],
        Eddy.Programs.fig1_temporal_mean );
    ]

(* --- scratch data directories ---------------------------------------------- *)

(* Without [~dir], [Driver.exec] runs the binary in a scratch directory
   that must be gone when the call returns: after a run that writes a
   matrix, after an instrumented run, and after a run that fails. *)
let test_exec_removes_scratch_dir () =
  ignore (ensure_cc ());
  let cache_dir = Lazy.force suite_cache in
  let tmp = fresh_dir () in
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name tmp;
  Fun.protect
    ~finally:(fun () -> Filename.set_temp_dir_name saved)
    (fun () ->
      let writes =
        "int main() { Matrix int <1> m = init(Matrix int <1>, 3); \
         writeMatrix(\"out.data\", m); return 1; }"
      in
      (match Driver.exec ~cache_dir (Driver.Composed full) writes with
      | Driver.Ok_ _ -> ()
      | Driver.Failed ds ->
          Alcotest.failf "exec failed: %s" (Driver.diags_to_string ds));
      (match
         Driver.profile_native ~cache_dir (Driver.Composed full) (example "eddy_energy.mc")
       with
      | Driver.Ok_ _ -> ()
      | Driver.Failed ds ->
          Alcotest.failf "profile_native failed: %s" (Driver.diags_to_string ds));
      match Driver.exec ~cache_dir (Driver.Composed full) Eddy.Programs.fig1_temporal_mean with
      | Driver.Ok_ _ -> Alcotest.fail "expected a missing-input failure"
      | Driver.Failed _ -> ());
  Alcotest.(check (array string)) "nothing left in the temp dir" [||]
    (Sys.readdir tmp);
  Sys.rmdir tmp

(* --- slice-copy elimination is sound, natively ------------------------------ *)

(* The programs of the interpreter's soundness cases (test_pipeline.ml):
   copy-semantics answers at every -O level, and the over-reads the
   subscript checks trap. *)
let test_slice_copy_semantics_native () =
  ignore (ensure_cc ());
  let exec config src =
    Driver.exec ~dir:(fresh_dir ()) ~config
      ~cache_dir:(Lazy.force suite_cache) (Driver.Composed full) src
  in
  List.iter
    (fun (level, config) ->
      List.iter
        (fun (src, expected) ->
          match exec config src with
          | Driver.Ok_ { Native.Exec.value = Native.Exec.RScal (S.I n); _ } ->
              Alcotest.(check int) ("copy semantics at " ^ level) expected n
          | Driver.Ok_ o ->
              Alcotest.failf "got %a" Native.Exec.pp_value o.Native.Exec.value
          | Driver.Failed ds ->
              Alcotest.failf "exec failed: %s" (Driver.diags_to_string ds))
        Test_pipeline.slice_answers;
      List.iter
        (fun src ->
          match exec config src with
          | Driver.Ok_ o ->
              Alcotest.failf "%s: over-read gave %a, expected a failed check"
                level Native.Exec.pp_value o.Native.Exec.value
          | Driver.Failed ds ->
              let text = Driver.diags_to_string ds in
              Alcotest.(check bool)
                (Printf.sprintf "%s: the check names the over-read (got: %s)"
                   level text)
                true
                (is_infix
                   ~affix:"index 4 out of bounds for dimension 0 of extent 4"
                   text))
        Test_pipeline.[ slice_overread_src; slice_shadowed_overread_src ])
    (Test_pipeline.levels full)

(* --- parallel runs: exact live counts at any thread count ------------------ *)

(* Each thread tallies its allocations in a slot of its own; the live
   count must still be exact, and agree with the interpreter, when the
   three programs whose regions allocate run on 4 threads, and on more
   threads than the runtime has slots (MM_TALLY_SLOTS, 64: the rest
   share one overflow slot; native_profile "memory summary at 1, 4 and
   72 threads" checks that slot's bytes).  A guard: the shared counters
   the slots replace were exact too. *)
let test_parallel_live_counts () =
  let ssh, _ = Eddy.Ssh_gen.generate ~lat:12 ~lon:14 ~time:4 ~n_eddies:2 ~seed:7 () in
  let dates = Nd.init_int [| 4 |] (fun ix -> 1012000 + ix.(0)) in
  List.iter
    (fun (threads, interp_threads) ->
      List.iter
        (fun (name, src, inputs, outputs) ->
          let name = Printf.sprintf "%s/%d threads" name threads in
          differential ~name ~auto_par:true ~threads ~interp_threads ~inputs
            ~outputs src;
          (* the differential has checked native = interpreter *)
          Alcotest.(check int) (name ^ ": __mm_live 0") 0
            (Runtime.Rc.live_count ()))
        [
          ( "fig8",
            Eddy.Programs.fig8_scoring,
            [ ("ssh.data", trough_cube ()) ],
            [ "temporalScores.data" ] );
          ("eddy_energy", example "eddy_energy.mc", [], []);
          ( "fig4",
            Eddy.Programs.fig4_conncomp,
            [ ("ssh.data", ssh); ("dates.data", dates) ],
            [ "eddyLabels.data" ] );
        ])
    [ (4, 4); (72, 2) ]

(* --- regressions: both backends --------------------------------------------- *)

let both_return ~name ~expect src =
  Runtime.Rc.reset ();
  Runtime.Limits.configure ~max_steps:100_000 ();
  (match Fun.protect ~finally:Runtime.Limits.clear (fun () -> Driver.run full src []) with
  | Driver.Ok_ (Interp.Eval.VScal v) ->
      Alcotest.(check int) (name ^ ": interpreter result") expect (S.to_int v)
  | Driver.Ok_ v -> Alcotest.failf "%s: interpreter returned %a" name Interp.Eval.pp_value v
  | Driver.Failed ds ->
      Alcotest.failf "%s: interpreter failed: %s" name (Driver.diags_to_string ds));
  Alcotest.(check int) (name ^ ": interpreter live count") 0 (Runtime.Rc.live_count ());
  ignore (ensure_cc ());
  match
    Driver.exec ~timeout_s:20. ~cache_dir:(Lazy.force suite_cache) (Driver.Composed full) src
  with
  | Driver.Ok_ { Native.Exec.value = Native.Exec.RScal v; live; _ } ->
      Alcotest.(check int) (name ^ ": native result") expect (S.to_int v);
      Alcotest.(check int) (name ^ ": __mm_live") 0 live
  | Driver.Ok_ o ->
      Alcotest.failf "%s: native returned %a" name Native.Exec.pp_value o.Native.Exec.value
  | Driver.Failed ds ->
      Alcotest.failf "%s: native failed: %s" name (Driver.diags_to_string ds)

(* The step of a for-loop binds the loop's variable even where the body
   declares one of the same name — on the fall-through path and through
   a continue — so the loop runs 3 times, as in C. *)
let test_for_step_scope () =
  both_return ~name:"shadowed index" ~expect:3
    {|
int main() {
  int s = 0;
  for (int k = 0; k < 3; k++) { int k = 1; s = s + k; }
  return s;
}
|};
  both_return ~name:"shadowed index, continue" ~expect:3
    {|
int main() {
  int s = 0;
  for (int k = 0; k < 3; k++) {
    int k = 1;
    s = s + k;
    if (s > 0) { continue; }
    s = s + 100;
  }
  return s;
}
|}

(* A matrix parameter the body rebinds is owned by the function: the
   assignment releases the function's own reference, not the caller's. *)
let test_rebound_param () =
  both_return ~name:"rebound parameter" ~expect:5
    {|
int f(Matrix int <1> g, Matrix int <1> h) {
  g = h;
  return g[0];
}

int main() {
  Matrix int <1> a = with ([0] <= [i] < [4]) genarray([4], i + 1);
  Matrix int <1> b = with ([0] <= [i] < [4]) genarray([4], i + 5);
  return f(a, b);
}
|}

(* A block that shadows an owned matrix owns its own [a]: every early
   exit from inside it releases the inner matrix once and the outer one
   once, in both backends. *)
(* A condition's right operand runs only where C evaluates it, and a
   condition's matrix temporaries are released on every path: the
   result and a live count of 0 agree in both backends. *)
let test_short_circuit_operands () =
  both_return ~name:"&& skips an out-of-range right operand" ~expect:0
    {|
int main() {
  Matrix int <1> idx = with ([0] <= [k] < [3]) genarray([3], k);
  Matrix int <1> a = with ([0] <= [k] < [3]) genarray([3], k + 1);
  int n = 3;
  int i = 3;
  int r = 0;
  if (i < n && a[idx[i]] > 0) { r = 1; }
  return r;
}
|};
  both_return ~name:"|| skips an out-of-range right operand" ~expect:0
    {|
int main() {
  Matrix int <1> idx = with ([0] <= [k] < [3]) genarray([3], k);
  Matrix int <1> a = with ([0] <= [k] < [3]) genarray([3], k + 1);
  int n = 3;
  int i = 3;
  int r = 1;
  if (i >= n || a[idx[i]] > 0) { r = 0; }
  return r;
}
|};
  (* the allocating right operand evaluated true, evaluated false, and
     skipped *)
  both_return ~name:"&& right operand allocates, taken and not" ~expect:100
    {|
int f(int k, int n) {
  Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i);
  int r = 0;
  if (k > 0 && dimSize(v + v, 0) > 5) { r = 1; }
  return r;
}

int main() { return f(1, 8) * 100 + f(1, 2) * 10 + f(0, 8); }
|};
  (* skipped, evaluated true, evaluated false *)
  both_return ~name:"|| right operand allocates, taken and not" ~expect:110
    {|
int f(int k, int n) {
  Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i);
  int r = 0;
  if (k > 0 || dimSize(v + v, 0) > 5) { r = 1; }
  return r;
}

int main() { return f(1, 2) * 100 + f(0, 8) * 10 + f(0, 2); }
|}

let test_if_condition_temporaries () =
  both_return ~name:"if without else, both paths" ~expect:10
    {|
int f(int n) {
  Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i);
  int r = 0;
  if (dimSize(v + v, 0) > 5) { r = 1; }
  return r;
}

int main() { return f(8) * 10 + f(3); }
|};
  both_return ~name:"if with else, both paths" ~expect:12
    {|
int f(int n) {
  Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i);
  int r = 0;
  if (dimSize(v + v, 0) > 5) { r = 1; } else { r = 2; }
  return r;
}

int main() { return f(8) * 10 + f(3); }
|}

let test_shadowed_owned_matrix () =
  both_return ~name:"shadowing block, return" ~expect:6
    {|
int f(int n) {
  Matrix int <1> a = with ([0] <= [i] < [4]) genarray([4], i);
  {
    Matrix int <1> a = with ([0] <= [i] < [3]) genarray([3], i + n);
    if (n > 0) { return a[2]; }
  }
  return a[3];
}

int main() { return f(1) + f(0); }
|};
  both_return ~name:"shadowing block, break" ~expect:17
    {|
int main() {
  int s = 0;
  int k = 0;
  while (k < 4) {
    Matrix int <1> a = with ([0] <= [i] < [4]) genarray([4], i + k);
    {
      Matrix int <1> a = with ([0] <= [i] < [3]) genarray([3], 10 * i);
      if (k == 2) { s = s + a[1]; break; }
    }
    s = s + a[3];
    k = k + 1;
  }
  return s;
}
|};
  both_return ~name:"shadowing block, continue" ~expect:22
    {|
int main() {
  int s = 0;
  int k = 0;
  while (k < 3) {
    Matrix int <1> a = with ([0] <= [i] < [4]) genarray([4], i + k);
    k = k + 1;
    {
      Matrix int <1> a = with ([0] <= [i] < [3]) genarray([3], 10 * i);
      if (k == 2) { s = s + a[2]; continue; }
    }
    s = s + a[0];
  }
  return s;
}
|};
  (* a generator index named like the renamed matrix is the index *)
  both_return ~name:"shadowing block, generator index" ~expect:26
    {|
int main() {
  Matrix int <1> a = with ([0] <= [i] < [4]) genarray([4], i);
  int s = 0;
  {
    Matrix int <1> a = with ([0] <= [i] < [3]) genarray([3], 10 + i);
    Matrix int <1> b = with ([0] <= [a] < [3]) genarray([3], a + 1);
    s = b[2] + a[1];
    if (s > 0) { return s + a[2]; }
  }
  return s + a[3];
}
|}

(* --- indexing modes and matrix arithmetic --------------------------------------- *)

(* Every indexing mode of §III-A3 and the matrix arithmetic of §III-A2,
   lowered to loops, agree across backends at 1 and 2 threads: gather
   read and range write, mask read and mask fill, whole dimensions with
   [end] and [end - 3], a 2-D range with [end], an empty range (dimSize
   0), the product of two sub-blocks, [.*] and matrix-scalar arithmetic
   in both operand orders. *)
let indexing_src =
  {|
int main() {
  Matrix int <1> v = with ([0] <= [i] < [10]) genarray([10], i * i);
  Matrix int <1> idx = with ([0] <= [i] < [3]) genarray([3], 8 - 3 * i);
  Matrix int <1> g = v[idx];
  v[7::9] = g;
  Matrix int <1> odd = v[v % 2 == 1];
  v[v > 40] = -1;
  Matrix float <2> m = with ([0,0] <= [i,j] < [4,6]) genarray([4,6], (float)(10 * i + j) / 4.0);
  Matrix float <1> row = m[1, :];
  Matrix float <1> col = m[:, end];
  Matrix float <1> back = m[:, end - 3];
  Matrix float <2> blk = m[1::end, 2::end];
  Matrix float <1> none = row[5::2];
  Matrix float <2> p = m[0::1, 0::2] * m[1::3, 3::4];
  Matrix float <2> q = m .* m;
  Matrix float <2> r = 2.0 - m;
  Matrix float <2> s = m / 4.0;
  writeMatrix("v.data", v);
  writeMatrix("g.data", g);
  writeMatrix("odd.data", odd);
  writeMatrix("row.data", row);
  writeMatrix("col.data", col);
  writeMatrix("back.data", back);
  writeMatrix("blk.data", blk);
  writeMatrix("none.data", none);
  writeMatrix("p.data", p);
  writeMatrix("q.data", q);
  writeMatrix("r.data", r);
  writeMatrix("s.data", s);
  return dimSize(none, 0) * 1000 + dimSize(blk, 0) * 100 + dimSize(p, 1) * 10
    + dimSize(odd, 0);
}
|}

(* An out-of-range gather index, and a 2-element source assigned into a
   3-element range: the interpreter and the binary fail with one message
   at one span. *)
let indexing_errors =
  [
    ( "gather index out of range",
      {|
int main() {
  Matrix int <1> v = with ([0] <= [i] < [4]) genarray([4], i);
  Matrix int <1> idx = with ([0] <= [i] < [2]) genarray([2], 3 + i);
  Matrix int <1> g = v[idx];
  return g[0];
}
|},
      "index 4 out of bounds for dimension 0 of extent 4" );
    ( "source shorter than its range",
      {|
int main() {
  Matrix int <1> v = with ([0] <= [i] < [6]) genarray([6], i);
  Matrix int <1> src = with ([0] <= [i] < [2]) genarray([2], 10 + i);
  v[1::3] = src;
  return v[1];
}
|},
      "assigned matrix disagrees with the selected region in dimension 0: 2 \
       against 3" );
  ]

let test_indexing_modes () =
  List.iter
    (fun threads ->
      differential
        ~name:(Printf.sprintf "indexing/%d threads" threads)
        ~auto_par:(threads > 1) ~threads ~inputs:[]
        ~outputs:
          [ "v.data"; "g.data"; "odd.data"; "row.data"; "col.data";
            "back.data"; "blk.data"; "none.data"; "p.data"; "q.data";
            "r.data"; "s.data" ]
        indexing_src)
    [ 1; 2 ];
  let failure ~name ~backend expected = function
    | Driver.Ok_ _ -> Alcotest.failf "%s: %s succeeded" name backend
    | Driver.Failed (d :: _) ->
        Alcotest.(check string)
          (Printf.sprintf "%s: %s names the fault" name backend)
          expected d.Support.Diag.message;
        Support.Pos.span_to_string d.Support.Diag.span
    | Driver.Failed [] -> Alcotest.failf "%s: %s failed silently" name backend
  in
  List.iter
    (fun (name, src, msg) ->
      let interp =
        failure ~name ~backend:"interpreter" msg (Driver.run full src [])
      in
      let native =
        failure ~name ~backend:"binary" msg
          (Driver.exec ~cache_dir:(Lazy.force suite_cache)
             (Driver.Composed full) src)
      in
      Alcotest.(check string) (name ^ ": same span") interp native)
    indexing_errors

(* A declaration in a for-loop's init is scoped to the loop, as in C: it
   neither clobbers an outer variable of the same name nor clashes with a
   sibling loop's. *)
let test_for_init_scope () =
  both_return ~name:"outer variable kept" ~expect:503
    {|
int main() {
  int i = 5;
  int s = 0;
  for (int i = 0; i < 3; i++) { s = s + i; }
  return i * 100 + s;
}
|};
  both_return ~name:"sibling loops" ~expect:9
    {|
int main() {
  int s = 0;
  for (int i = 0; i < 3; i++) { s = s + i; }
  for (int i = 0; i < 4; i++) { s = s + i; }
  return s;
}
|};
  both_return ~name:"sibling loops over matrices" ~expect:50
    {|
int main() {
  Matrix int <2> m = with ([0,0] <= [i,j] < [3,4]) genarray([3,4], i * 4 + j);
  int s = 0;
  for (int k = 0; k < 3; k++) {
    Matrix int <1> row = m[k, :];
    s = s + row[0];
  }
  for (int k = 0; k < 4; k++) {
    Matrix int <1> col = m[:, k];
    s = s + col[2];
  }
  return s;
}
|}

(* A vectorize clause on a loop that still holds a subscript check
   leaves the loop scalar, says so as a Missed remark, and the program
   agrees with the interpreter: [g]'s extents are not provably the
   generator's, so [g[i, j]] keeps its check. *)
let test_vectorize_keeps_checked_loop () =
  let src =
    {|
int main() {
  Matrix float <2> g = with ([0,0] <= [a,b] < [4,8]) genarray([4,8], (float)(a * 8 + b));
  int m = 4;
  int n = 8;
  Matrix float <2> h = init(Matrix float <2>, m, n);
  h = with ([0,0] <= [i,j] < [m,n]) genarray ([m,n], g[i, j] * 2f)
    transform split j by 4, jin, jout.
              vectorize jin;
  return (int) with ([0,0] <= [i,j] < [m,n]) fold (+, 0f, h[i, j]);
}
|}
  in
  (match Driver.explain full src with
  | Driver.Ok_ _, report ->
      let missed =
        Support.Remark.filter ~pass:"transform" ~kind:Support.Remark.Missed
          report.Driver.Explain_report.remarks
      in
      Alcotest.(check (list string)) "vectorize jin is a Missed remark"
        [ "vectorize jin" ]
        (List.map
           (fun (r : Support.Remark.t) -> List.assoc "clause" r.details)
           missed)
  | Driver.Failed ds, _ ->
      Alcotest.failf "explain failed: %s" (Driver.diags_to_string ds));
  (match Driver.compile_to_c full src with
  | Driver.Ok_ c ->
      Alcotest.(check bool) "no vector code" false (is_infix ~affix:"_mm_set" c);
      Alcotest.(check bool) "the scalar jin loop stays" true
        (is_infix ~affix:"jin++" c)
  | Driver.Failed ds ->
      Alcotest.failf "emit failed: %s" (Driver.diags_to_string ds));
  both_return ~name:"checked vectorize" ~expect:992 src

(* --- with-loop folding ---------------------------------------------------------- *)

(* The fuse pass's folding remarks for [src], as (kind, message). *)
let fold_remarks src =
  let folding m =
    String.starts_with ~prefix:"range " m
    || String.starts_with ~prefix:"elementwise result " m
  in
  match Driver.explain full src with
  | Driver.Ok_ _, report ->
      List.filter_map
        (fun (r : Support.Remark.t) ->
          if r.pass = "fuse" && folding r.message then Some (r.kind, r.message)
          else None)
        report.Driver.Explain_report.remarks
  | Driver.Failed ds, _ ->
      Alcotest.failf "explain failed: %s" (Driver.diags_to_string ds)

let count_kind kind rs = List.length (List.filter (fun (k, _) -> k = kind) rs)

(* A three-operator chain assigned into a range, a range read, and a
   product assigned into a range.  The ranges and the chain's first two
   results are each read by one loop, so they are computed there; the
   chain's last result and the product stay, since the loop reading
   them writes a named matrix that might share a buffer with what they
   read. *)
let fold_src =
  {|
int main() {
  Matrix float <1> a = with ([0] <= [i] < [9]) genarray([9], (float) i * 0.5);
  Matrix float <1> b = with ([0] <= [i] < [9]) genarray([9], 3.0 - (float) i);
  Matrix float <1> c = with ([0] <= [i] < [9]) genarray([9], (float)(i * i) / 7.0);
  Matrix float <1> r = init(Matrix float <1>, 12);
  r[2::10] = a * 1.5 + b - c;
  Matrix int <1> v = with ([0] <= [i] < [12]) genarray([12], i * i - 3 * i);
  int lo = 2;
  int hi = 7;
  Matrix int <1> w = v[lo::hi];
  Matrix int <1> s = init(Matrix int <1>, 12);
  int from = hi - 1;
  int to = hi + 4;
  s[from::to] = w * 3;
  writeMatrix("r.data", r);
  writeMatrix("w.data", w);
  writeMatrix("s.data", s);
  return s[7] + w[0];
}
|}

let test_fold_chain_and_ranges () =
  let rs = fold_remarks fold_src in
  Alcotest.(check int) "three ranges and two links of the chain fold" 5
    (count_kind Support.Remark.Applied rs);
  Alcotest.(check (list string)) "the results written into a range stay"
    [
      "elementwise result keeps its temporary: a matrix written in the loop \
       that reads it may share a buffer with one it reads";
      "elementwise result keeps its temporary: a matrix written in the loop \
       that reads it may share a buffer with one it reads";
    ]
    (List.filter_map
       (fun (k, m) -> if k = Support.Remark.Missed then Some m else None)
       rs);
  (match Driver.compile_to_c full fold_src with
  | Driver.Ok_ c ->
      Alcotest.(check bool) "no index vector is allocated" false
        (is_infix ~affix:"__mm_rng" c)
  | Driver.Failed ds -> Alcotest.failf "emit failed: %s" (Driver.diags_to_string ds));
  List.iter
    (fun threads ->
      differential
        ~name:(Printf.sprintf "folds/%d threads" threads)
        ~auto_par:(threads > 1) ~threads ~inputs:[]
        ~outputs:[ "r.data"; "w.data"; "s.data" ] fold_src)
    [ 1; 2 ]

(* Temporaries that must keep their allocation, each with the reason
   its Missed remark names: a mask two loops read, and a product whose
   input a call writes before the sum that reads it. *)
let kept_src =
  {|
Matrix int <1> bump(Matrix int <1> v) {
  v[0] = 100;
  return with ([0] <= [i] < [dimSize(v, 0)]) genarray([dimSize(v, 0)], 1);
}

int main() {
  Matrix int <1> v = with ([0] <= [i] < [10]) genarray([10], i * 7 % 10);
  Matrix int <1> big = v[v > 4];
  Matrix int <1> r = v * 2 + bump(v);
  writeMatrix("big.data", big);
  writeMatrix("r.data", r);
  return r[0] * 1000 + v[0];
}
|}

let test_fold_kept () =
  let rs = fold_remarks kept_src in
  let missed_with affix =
    List.exists
      (fun (k, m) -> k = Support.Remark.Missed && is_infix ~affix m)
      rs
  in
  Alcotest.(check bool) "the mask is read by two loops" true
    (missed_with "2 statements read it");
  Alcotest.(check bool) "the call may write what the product reads" true
    (missed_with
       "the call to 'bump' before the loop that reads it may write a matrix \
        it reads");
  both_return ~name:"call writes the product's input" ~expect:1100 kept_src;
  List.iter
    (fun threads ->
      differential
        ~name:(Printf.sprintf "kept/%d threads" threads)
        ~auto_par:(threads > 1) ~threads ~inputs:[]
        ~outputs:[ "big.data"; "r.data" ] kept_src)
    [ 1; 2 ]

(* Folding moves no failure: a chain whose last operand has another
   shape fails with the unfolded program's message at its span, and an
   integer division by zero, which never folds, at the division's span,
   in both backends at 1 and 2 threads. *)
let fold_failures =
  [
    ( "shape",
      {|
int main() {
  Matrix int <1> a = with ([0] <= [i] < [5]) genarray([5], i);
  Matrix int <1> b = with ([0] <= [i] < [5]) genarray([5], 2 * i);
  Matrix int <1> c = with ([0] <= [i] < [4]) genarray([4], 1);
  Matrix int <1> r = init(Matrix int <1>, 5);
  r[0::4] = a * 2 + b - c;
  return r[0];
}
|},
      Some "operands of '-' disagree in dimension 0: 5 against 4" );
    ( "division by zero",
      {|
int main() {
  Matrix int <1> v = with ([0] <= [i] < [5]) genarray([5], i + 1);
  Matrix int <1> z = with ([0] <= [i] < [5]) genarray([5], 3 - i);
  Matrix int <1> r = init(Matrix int <1>, 5);
  r[0::4] = v / z + 1;
  return r[0];
}
|},
      Some "integer division by zero" );
  ]

let test_fold_failures () =
  let config fuse =
    Driver.Pipeline.enable (Driver.default_config full) "fuse" fuse
  in
  List.iter
    (fun (name, src, message) ->
      let span ~backend = function
        | Driver.Ok_ _ -> Alcotest.failf "%s: %s succeeded" name backend
        | Driver.Failed (d :: _) ->
            Option.iter
              (fun m ->
                Alcotest.(check string)
                  (Printf.sprintf "%s: %s names the fault" name backend)
                  m d.Support.Diag.message)
              message;
            Support.Pos.span_to_string d.Support.Diag.span
        | Driver.Failed [] -> Alcotest.failf "%s: %s failed silently" name backend
      in
      let unfolded =
        span ~backend:"unfolded interpreter"
          (Driver.run ~config:(config false) full src [])
      in
      List.iter
        (fun threads ->
          let interp =
            span ~backend:"interpreter"
              (if threads > 1 then
                 Runtime.Pool.with_pool threads (fun pool ->
                     Driver.run ~pool full src [])
               else Driver.run full src [])
          in
          let native =
            span ~backend:"binary"
              (Driver.exec ~threads ~cache_dir:(Lazy.force suite_cache)
                 (Driver.Composed full) src)
          in
          Alcotest.(check string) (name ^ ": the unfolded program's span")
            unfolded interp;
          Alcotest.(check string) (name ^ ": same span in both backends")
            interp native)
        [ 1; 2 ])
    fold_failures;
  Alcotest.(check bool) "the shape case's chain folds" true
    (count_kind Support.Remark.Applied
       (fold_remarks (let _, src, _ = List.hd fold_failures in src))
    >= 2)

(* Generated programs compile with -ffp-contract=off: under
   -march=native on a host with FMA, a folded [x * m + b] is still two
   roundings, as in the interpreter. *)
let test_march_native_mul_add () =
  ignore (ensure_cc ());
  match Native.Toolchain.probe ~cflags:[ "-march=native" ] () with
  | Error e ->
      Printf.printf "SKIP: cc rejects -march=native (%s)\n%!"
        (Native.Toolchain.describe_error e)
  | Ok _ ->
      differential ~name:"mul-add under -march=native" ~cflags:[ "-march=native" ]
        ~inputs:[] ~outputs:[ "y.data" ]
        {|
float main() {
  Matrix float <1> x = with ([0] <= [i] < [97]) genarray([97], (float) i / 7.0 + 0.1);
  Matrix float <1> y = init(Matrix float <1>, 97);
  y[0::96] = x * 1.1 + 0.3;
  writeMatrix("y.data", y);
  return with ([0] <= [i] < [97]) fold (+, 0f, y[i] * 0.7 + x[i]);
}
|}

(* A diagnostic with no location prints none: a --cc that runs but
   fails is a native-compile error with no "1:1-1:" prefix. *)
let test_unlocated_diagnostic () =
  let mmc = Filename.concat (Filename.concat ".." "bin") "mmc.exe" in
  if not (Sys.file_exists mmc) then Alcotest.skip ();
  let dir = fresh_dir () in
  let badcc = Filename.concat dir "badcc" in
  Out_channel.with_open_text badcc (fun oc -> output_string oc "#!/bin/sh\nexit 1\n");
  Unix.chmod badcc 0o755;
  let prog = Filename.concat dir "prog.mc" in
  Out_channel.with_open_text prog (fun oc ->
      output_string oc "int main() { return 3; }\n");
  let err = Filename.concat dir "err" in
  let code =
    Sys.command
      (Printf.sprintf "%s exec --cc %s --cache-dir %s %s > /dev/null 2> %s"
         (Filename.quote mmc) (Filename.quote badcc)
         (Filename.quote (Filename.concat dir "cache"))
         (Filename.quote prog) (Filename.quote err))
  in
  let err = In_channel.with_open_text err In_channel.input_all in
  Alcotest.(check int) "mmc exec exits 1" 1 code;
  Alcotest.(check bool)
    (Printf.sprintf "stderr starts with the phase (got: %s)" err)
    true
    (String.starts_with ~prefix:"error [native-compile]:" err)

(* --- a float matrix read from a file maps it ------------------------------ *)

(* The hazards of a payload mapped from its file, interpreter against
   native at 1 and 2 threads: overwriting the mapped file with a smaller
   matrix (truncating it in place would kill the binary with SIGBUS on
   its next read past the new end), storing into a read matrix (a
   private copy: the file keeps its bytes, so a second read sees the
   old value), and releasing one read matrix early while another is
   returned, live at exit. *)
let test_mapped_reads () =
  let ramp = Nd.init_float [| 10000 |] (fun ix -> float_of_int ix.(0)) in
  List.iter
    (fun threads ->
      List.iter
        (fun (name, outputs, src) ->
          differential
            ~name:(Printf.sprintf "%s/%d threads" name threads)
            ~auto_par:(threads > 1) ~threads
            ~inputs:[ ("x.data", ramp) ]
            ~outputs src)
        [
          ( "overwrite the mapped file",
            [ "x.data" ],
            {|
int main() {
  Matrix float <1> a = readMatrix("x.data");
  Matrix float <1> b = with ([0] <= [i] < [1]) genarray([1], 1.0);
  writeMatrix("x.data", b);
  return (int) a[9000];
}
|} );
          ( "store into a read matrix",
            [ "x.data"; "a.data" ],
            {|
int main() {
  Matrix float <1> a = readMatrix("x.data");
  a[3] = 42.5;
  Matrix float <1> c = readMatrix("x.data");
  writeMatrix("a.data", a);
  return (int) (a[3] * 10.0 + c[3]);
}
|} );
          ( "release one early, return one",
            [],
            {|
Matrix float <1> main() {
  float s = 0.0;
  {
    Matrix float <1> a = readMatrix("x.data");
    s = a[1] + a[9999];
  }
  Matrix float <1> b = readMatrix("x.data");
  b[0] = s;
  return b;
}
|} );
        ])
    [ 1; 2 ]

(* writeMatrix replaces its target by renaming a temporary file over
   it.  After a write that succeeds (over an existing file) and after
   one that fails (the target is a directory), both backends, at 1 and
   2 threads, leave the same files in the data directory and no
   temporary one. *)
let test_write_leaves_no_temporary () =
  ignore (ensure_cc ());
  let src =
    {|
int main() {
  Matrix int <1> v = with ([0] <= [i] < [4]) genarray([4], i);
  writeMatrix("out.data", v);
  return 1;
}
|}
  in
  let ok_of = function Driver.Ok_ _ -> true | Driver.Failed _ -> false in
  List.iter
    (fun (what, setup, succeeds) ->
      List.iter
        (fun threads ->
          let after run =
            let dir = fresh_dir () in
            setup dir;
            let ok = ok_of (run dir) in
            (ok, List.sort compare (Array.to_list (Sys.readdir dir)))
          in
          let interp =
            after (fun dir ->
                Runtime.Pool.with_pool threads (fun pool ->
                    Driver.run ~dir ~pool full src []))
          and native =
            after (fun dir ->
                Driver.exec ~dir ~threads ~cache_dir:(Lazy.force suite_cache)
                  (Driver.Composed full) src)
          in
          List.iter
            (fun (backend, got) ->
              Alcotest.(check (pair bool (list string)))
                (Printf.sprintf "%s, %s at %d threads" what backend threads)
                (succeeds, [ "out.data" ])
                got)
            [ ("interp", interp); ("native", native) ])
        [ 1; 2 ])
    [
      ( "a write over an existing file",
        (fun dir ->
          Interp.Eval.provide_input ~dir "out.data" (Nd.vec_i [ 9; 9 ])),
        true );
      ( "a failed write",
        (fun dir -> Sys.mkdir (Filename.concat dir "out.data") 0o755),
        false );
    ]

(* A with-loop body that makes temporaries (a range, a slice, an
   elementwise result) releases them in the loop, where they are
   declared: both backends agree at 1 and 2 threads, live count
   included. *)
let test_with_body_temporaries () =
  List.iter
    (fun threads ->
      differential
        ~name:(Printf.sprintf "with-loop body temporaries/%d threads" threads)
        ~auto_par:(threads > 1) ~threads ~inputs:[] ~outputs:[]
        {|
int main() {
  Matrix int <1> v = with ([0] <= [i] < [4]) genarray([4], i);
  Matrix int <1> g = with ([0] <= [i] < [4]) genarray([4], dimSize(v[0::i] * 2, 0));
  int s = with ([0] <= [i] < [4]) fold(+, 0, dimSize(v[0::i] + 1, 0));
  return g[3] * 100 + s;
}
|})
    [ 1; 2 ]

(* Results of 2 MiB and more, which the runtime maps on huge pages: a
   genarray, an elementwise chain, a slice, a matrixMap and an int
   readMatrix, with one released early and one live at exit.  Both
   backends agree at 1 and 2 threads, on the result, the live count and
   the files.  The native --max-bytes cap still fails an allocation
   above it, and passes one below it. *)
let big_src =
  {|
Matrix float <1> centre(Matrix float <1> row) {
  float s = with ([0] <= [k] < [dimSize(row, 0)]) fold (+, 0f, row[k]);
  return row - s / (float) dimSize(row, 0);
}

Matrix float <2> main() {
  Matrix int <2> counts = readMatrix("counts.data");
  int m = dimSize(counts, 0);
  int n = dimSize(counts, 1);
  Matrix float <2> g =
    with ([0,0] <= [i,j] < [m,n]) genarray ([m,n], (float) (counts[i,j] % 7) * 0.5);
  Matrix float <2> e = g * 2.0 + 1.0;
  g = init(Matrix float <2>, 1, 1);
  Matrix float <2> top = e[0::m / 2 - 1, :];
  writeMatrix("e.data", e);
  Matrix float <2> centred = matrixMap(centre, top, [1]);
  writeMatrix("centred.data", centred);
  return centred;
}
|}

let test_big_payloads () =
  (* 1024 x 512: a 2 MiB int payload, 4 MiB float ones, and a 2 MiB
     half *)
  let counts =
    Nd.init_int [| 1024; 512 |] (fun ix -> (31 * ix.(0)) + (7 * ix.(1)))
  in
  List.iter
    (fun threads ->
      differential
        ~name:(Printf.sprintf "big payloads/%d threads" threads)
        ~auto_par:(threads > 1) ~threads
        ~inputs:[ ("counts.data", counts) ]
        ~outputs:[ "e.data"; "centred.data" ]
        big_src)
    [ 1; 2 ];
  let src =
    {|
int main() {
  Matrix float <1> big = init(Matrix float <1>, 16777216);
  big[1] = 2.0;
  return (int) big[1] + dimSize(big, 0);
}
|}
  in
  List.iter
    (fun (max_bytes, expected) ->
      let got =
        match
          Driver.exec ~dir:(fresh_dir ()) ~max_bytes
            ~cache_dir:(Lazy.force suite_cache) (Driver.Composed full) src
        with
        | Driver.Ok_ o -> Fmt.str "%a" Native.Exec.pp_value o.Native.Exec.value
        | Driver.Failed ds -> Driver.diags_to_string ds
      in
      Alcotest.(check bool)
        (Printf.sprintf "--max-bytes %d: %s (got: %s)" max_bytes expected got)
        true (is_infix ~affix:expected got))
    [
      (32 lsl 20, "alloc: out of memory for 16777216 elements");
      (512 lsl 20, "16777218");
    ]

(* A payload that starts unset is written in full before it is read;
   init and a genarray that leaves a border start zeroed.  Each case
   first releases three filled blocks of its own size, so the allocator
   hands it dirty memory. *)
let test_unzeroed_payloads () =
  let dirty =
    {|
int dirty(int k) {
  Matrix float <1> a = with ([0] <= [i] < [k]) genarray ([k], 7.5 + (float) i);
  Matrix float <1> b = with ([0] <= [i] < [k]) genarray ([k], 8.5 + (float) i);
  Matrix float <1> c = with ([0] <= [i] < [k]) genarray ([k], 9.5 + (float) i);
  return (int) (a[0] + b[0] + c[0]);
}
|}
  in
  List.iter
    (fun threads ->
      List.iter
        (fun (name, main) ->
          differential
            ~name:(Printf.sprintf "%s/%d threads" name threads)
            ~auto_par:(threads > 1) ~threads ~inputs:[] ~outputs:[]
            (dirty ^ main))
        [
          ( "a genarray that leaves a border",
            {|
Matrix float <1> main() {
  int n = 64;
  int d = dirty(n);
  return with ([1] <= [i] < [n - 1]) genarray ([n], 1.0 + (float) i);
}
|} );
          ( "init and partial writes",
            {|
Matrix float <1> main() {
  int n = 64;
  int d = dirty(n);
  Matrix float <1> c = init(Matrix float <1>, n);
  c[3] = 2.0;
  c[n - 1] = 4.0;
  return c;
}
|} );
          ( "a matrix product",
            {|
Matrix float <2> main() {
  int n = 8;
  int d = dirty(n * n);
  Matrix float <2> a =
    with ([0,0] <= [i,j] < [n,n]) genarray ([n,n], (float) (i - 2 * j));
  return a * a;
}
|} );
        ])
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "fig1 interp vs native" `Quick test_fig1;
    Alcotest.test_case "fig9 (SSE) interp vs native" `Quick test_fig9;
    Alcotest.test_case "fig8 (tuples) interp vs native" `Quick test_fig8;
    Alcotest.test_case "fig4 (conncomp) interp vs native" `Quick test_fig4;
    Alcotest.test_case "fig1 slice-copy interp vs native" `Quick
      test_fig1_slice;
    Alcotest.test_case "transform_tiling interp vs native" `Quick
      test_tiling_example;
    Alcotest.test_case "eddy_energy under all flag configs" `Quick
      test_eddy_flag_matrix;
    Alcotest.test_case "result protocol: every value shape" `Quick
      test_result_shapes;
    Alcotest.test_case "tuple-valued entry function" `Quick test_tuple_entry;
    Alcotest.test_case "writeMatrix int/bool container parity" `Quick
      test_write_matrix_kinds;
    QCheck_alcotest.to_alcotest prop_random_shapes;
    Alcotest.test_case "cache: hit on rerun" `Quick test_cache_hit_on_rerun;
    Alcotest.test_case "cache: invalidation on flag change" `Quick
      test_cache_invalidation_on_flag_change;
    Alcotest.test_case "cache: hit/miss counters exported" `Quick
      test_cache_counters_exported;
    Alcotest.test_case "missing compiler: graceful diagnostic" `Quick
      test_missing_compiler_graceful;
    Alcotest.test_case "runtime failure maps to diagnostic" `Quick
      test_runtime_failure_taxonomy;
    Alcotest.test_case "--keep-c recompiles standalone" `Quick
      test_keep_c_standalone_recompile;
    Alcotest.test_case "corpus emits -Werror-clean C" `Quick
      test_corpus_compiles_werror;
    Alcotest.test_case "cc runs: loader once, one per program, none on a hit"
      `Quick test_compiler_runs_per_invocation;
    Alcotest.test_case "matrix files round-trip byte for byte" `Quick
      test_roundtrip_bytes;
    Alcotest.test_case "exec: scratch data dir removed" `Quick
      test_exec_removes_scratch_dir;
    Alcotest.test_case "slice copies keep copy semantics" `Quick
      test_slice_copy_semantics_native;
    Alcotest.test_case "parallel runs: exact live counts at 4 and 72 threads"
      `Quick test_parallel_live_counts;
    Alcotest.test_case "for-loop step binds the loop variable" `Quick
      test_for_step_scope;
    Alcotest.test_case "rebound matrix parameter is owned" `Quick
      test_rebound_param;
    Alcotest.test_case "shadowing block releases each matrix once" `Quick
      test_shadowed_owned_matrix;
    Alcotest.test_case "indexing modes and matrix arithmetic agree" `Quick
      test_indexing_modes;
    Alcotest.test_case "for-init declarations are scoped to their loop" `Quick
      test_for_init_scope;
    Alcotest.test_case "no-OpenMP compiler: plain C agrees" `Quick
      test_no_openmp_fallback;
    Alcotest.test_case "vectorize keeps a checked loop scalar" `Quick
      test_vectorize_keeps_checked_loop;
    Alcotest.test_case "a diagnostic with no location prints none" `Quick
      test_unlocated_diagnostic;
    Alcotest.test_case "a condition's right operand runs only when needed"
      `Quick test_short_circuit_operands;
    Alcotest.test_case "an if condition's temporaries are released" `Quick
      test_if_condition_temporaries;
    Alcotest.test_case "folded chains and ranges agree at 1 and 2 threads"
      `Quick test_fold_chain_and_ranges;
    Alcotest.test_case "temporaries a fold must keep" `Quick test_fold_kept;
    Alcotest.test_case "a folded chain fails where the unfolded one does"
      `Quick test_fold_failures;
    Alcotest.test_case "mul-add chain bit for bit under -march=native" `Quick
      test_march_native_mul_add;
    Alcotest.test_case "a mapped float read survives overwrites and stores"
      `Quick test_mapped_reads;
    Alcotest.test_case "writeMatrix leaves no temporary file" `Quick
      test_write_leaves_no_temporary;
    Alcotest.test_case "a with-loop body releases its temporaries" `Quick
      test_with_body_temporaries;
    Alcotest.test_case "payloads of 2 MiB and more agree; --max-bytes holds"
      `Quick test_big_payloads;
    Alcotest.test_case "no unzeroed payload is read before it is written"
      `Quick test_unzeroed_payloads;
  ]
