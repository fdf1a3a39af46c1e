(* Supervised native execution: the subscript and shape checks of
   emitted C and the runtime's fallible calls, each reported at the
   interpreter's span, native failpoints (MM_FAILPOINTS, the
   interpreter's name@K grammar), supervisor deadline kills, sanitizer
   builds, and the native fault matrix — the interpreter's fault matrix
   re-run against `mmc exec`.

   Cases needing a real C compiler probe first and skip visibly when
   none is installed; everything heavy runs under a hard SIGALRM
   deadline so a supervision bug fails the test instead of wedging the
   suite. *)

module Nd = Runtime.Ndarray
module T = Support.Telemetry

let nd = Alcotest.testable Nd.pp Nd.equal

let full = Driver.compose [ Driver.matrix; Driver.transform; Driver.refptr ]

exception Deadline of string

let with_deadline ?(secs = 120) label f =
  let old =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> raise (Deadline label)))
  in
  ignore (Unix.alarm secs);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm old)
    f

let with_telemetry f =
  T.reset ();
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    f

let fresh_dir () =
  let d = Filename.temp_file "mmnfault" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

(* One binary cache for the whole suite: the fault matrix reuses one
   compile across its eight cells. *)
let suite_cache = lazy (fresh_dir ())

let ensure_cc () =
  match Native.Toolchain.probe () with
  | Ok tc -> tc
  | Error e ->
      Printf.printf "SKIP: no C compiler (%s)\n%!"
        (Native.Toolchain.describe_error e);
      Alcotest.skip ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let failed_text ~src = function
  | Driver.Ok_ _ -> Alcotest.fail "expected a failure diagnostic"
  | Driver.Failed ds -> Driver.diags_to_string ~src ds

(* --- satellite: signal-death decoding is a pure function ----------------- *)

let test_describe_signal_exit () =
  (* The spawn stub reaps the child itself, so a signal death arrives as
     [Run_signaled] and reads by the signal's name, never as a raw exit
     code; an exit code is only ever a code, 128 or more included. *)
  let msg =
    Native.Exec.describe_error
      (Native.Exec.Run_signaled
         { signal = 11; signal_name = "SIGSEGV"; stderr_text = "" })
  in
  Alcotest.(check string) "a signal death names the signal"
    "native binary killed by SIGSEGV (signal 11)" msg;
  (* the last stderr line rides along when there is one *)
  let msg =
    Native.Exec.describe_error
      (Native.Exec.Run_signaled
         {
           signal = 6;
           signal_name = "SIGABRT";
           stderr_text = "noise\nfree(): invalid pointer\n";
         })
  in
  Alcotest.(check string) "stderr tail attached"
    "native binary killed by SIGABRT (signal 6): free(): invalid pointer" msg;
  let msg =
    Native.Exec.describe_error
      (Native.Exec.Run_failed { exit_code = 139; stderr_text = "" })
  in
  Alcotest.(check string) "exit code 139 is a code"
    "native binary exited with code 139" msg;
  (* plain nonzero exits keep the existing mm_fatal taxonomy: stderr text
     verbatim when present, the code otherwise *)
  let msg =
    Native.Exec.describe_error
      (Native.Exec.Run_failed { exit_code = 70; stderr_text = "mm_runtime: boom\n" })
  in
  Alcotest.(check string) "mm_fatal stderr preserved" "mm_runtime: boom" msg

(* --- satellite: result-protocol parser is total --------------------------- *)

let test_parse_output_total () =
  let bad ?instrument text =
    match Native.Exec.parse_output ?instrument text with
    | Ok _ -> Alcotest.failf "parsed %S" text
    | Error (Native.Exec.Bad_output { message; offset }) -> (message, offset)
    | Error e ->
        Alcotest.failf "unexpected error class for %S: %s" text
          (Native.Exec.describe_error e)
  in
  (* truncated result line *)
  let m, off = bad "__mm_result\n" in
  Alcotest.(check bool) ("truncated line named: " ^ m) true
    (contains m "truncated");
  Alcotest.(check (option int)) "offset at line start" (Some 0) off;
  (* matrix header with missing extents *)
  let m, _ = bad "__mm_result mat f 2 3\n__mm_data 0 0 0\n" in
  Alcotest.(check bool) ("rank/extent mismatch named: " ^ m) true
    (contains m "rank");
  (* output ends mid-tuple *)
  let m, _ = bad "__mm_result tuple 2\n__mm_result int 1\n" in
  Alcotest.(check bool) ("mid-result end named: " ^ m) true
    (contains m "ended mid-result");
  (* corrupt tuple arity cannot allocate before erroring *)
  let m, _ = bad "__mm_result tuple 99999999\n" in
  Alcotest.(check bool) ("arity ceiling named: " ^ m) true
    (contains m "arity");
  (* the offending line's byte offset is reported, not just the first *)
  let _, off = bad "__mm_result int 7\n__mm_livex\n" in
  Alcotest.(check bool) "offset points past the first line" true
    (match off with Some o -> o > 0 | None -> false);
  (* garbage that is not protocol at all *)
  let m, _ = bad "Segmentation fault\n" in
  Alcotest.(check bool) ("no-protocol case named: " ^ m) true
    (contains m "no __mm_result");
  (* a profile line comes last, and only from an instrumented run *)
  let profiled = "__mm_result int 7\n__mm_live 0\n__mm_profile {\"a\":1}\n" in
  let m, _ = bad profiled in
  Alcotest.(check bool) ("a plain run's profile line named: " ^ m) true
    (contains m "trailing protocol line");
  let m, _ = bad ~instrument:true "__mm_result int 7\n__mm_live 0\n" in
  Alcotest.(check bool) ("a missing profile line named: " ^ m) true
    (contains m "missing __mm_profile");
  match Native.Exec.parse_output ~instrument:true profiled with
  | Ok (_, live, profile) ->
      Alcotest.(check (pair int (option string)))
        "an instrumented run's profile" (0, Some "{\"a\":1}") (live, profile)
  | Error e -> Alcotest.failf "profiled: %s" (Native.Exec.describe_error e)

let test_span_string_roundtrip () =
  List.iter
    (fun s ->
      match Support.Pos.span_of_string s with
      | None -> Alcotest.failf "span %S did not parse" s
      | Some sp ->
          Alcotest.(check string) ("roundtrip " ^ s) s
            (Support.Pos.span_to_string sp))
    [ "3:3-45"; "2:3-4:41"; "1:1-2" ];
  List.iter
    (fun s ->
      if Support.Pos.span_of_string s <> None then
        Alcotest.failf "bogus span %S parsed" s)
    [ "-"; "x"; "0:1-2"; "3:3"; "a:b-c" ]

(* --- failed checks render carets ------------------------------------------ *)

let oob_src =
  {|int main() {
  Matrix int <1> v = init(Matrix int <1>, 4);
  for (int i = 0; i < 10; i++) { v[i] = i; }
  return v[0];
}
|}

let test_oob_caret () =
  with_deadline "oob caret" @@ fun () ->
  ignore (ensure_cc ());
  let outcome =
    Driver.exec ~dir:(fresh_dir ()) ~cache_dir:(Lazy.force suite_cache)
      (Driver.Composed full) oob_src
  in
  let text = failed_text ~src:oob_src outcome in
  Alcotest.(check bool)
    (Printf.sprintf "names the out-of-bounds subscript (got: %s)" text)
    true
    (contains text "out of bounds");
  Alcotest.(check bool)
    (Printf.sprintf "caret excerpt at the faulting loop (got: %s)" text)
    true
    (contains text "for (int i = 0; i < 10; i++)" && contains text "^");
  Alcotest.(check bool) "no raw exit code" false (contains text "exit code")

(* Each program fails one check, and both backends report it with one
   message at one span, at 1 and at 2 threads; the end-of-series loop,
   whose && stops before the read, passes. *)
let check_programs =
  [
    ( "rising series",
      {|int main() {
  Matrix float <1> ts = with ([0] <= [k] < [8]) genarray ([8], (float) k);
  int i = 0;
  while (ts[i] < ts[i + 1]) { i = i + 1; }
  return i;
}
|},
      Some ("4:18-27", "index 8 out of bounds for dimension 0 of extent 8") );
    ( "subscript past its dimension",
      {|int main() {
  Matrix int <2> a = with ([0,0] <= [i,j] < [3,3]) genarray([3,3], i * 10 + j);
  return a[0, 4];
}
|},
      Some ("3:10-17", "index 4 out of bounds for dimension 1 of extent 3") );
    ( "elementwise shapes",
      {|int main() {
  Matrix int <2> a = with ([0,0] <= [i,j] < [2,3]) genarray([2,3], 1);
  Matrix int <2> b = with ([0,0] <= [i,j] < [3,2]) genarray([3,2], 1);
  Matrix int <2> c = a + b;
  return with ([0,0] <= [i,j] < [2,3]) fold (+, 0, c[i, j]);
}
|},
      Some ("4:22-27", "operands of '+' disagree in dimension 0: 2 against 3") );
    ( "matmul inner dimension",
      {|int main() {
  Matrix int <2> a = with ([0,0] <= [i,j] < [2,2]) genarray([2,2], 1);
  Matrix int <2> b = with ([0,0] <= [i,j] < [3,2]) genarray([3,2], 1);
  Matrix int <2> c = a * b;
  return dimSize(c, 0);
}
|},
      Some
        ( "4:22-27",
          "inner dimensions of the matrix product disagree: 2 against 3" ) );
    ( "uninitialised matrix",
      {|int main() {
  Matrix int <1> v;
  if (false) { v = init(Matrix int <1>, 3); }
  return v[0];
}
|},
      Some ("4:10-14", "use of an uninitialised matrix") );
    ( "extents of an uninitialised matrix",
      {|int main() {
  Matrix int <1> v;
  if (false) { v = init(Matrix int <1>, 3); }
  return dimSize(v, 0);
}
|},
      Some ("4:10-23", "use of an uninitialised matrix") );
    ( "elementwise on an uninitialised matrix",
      {|int main() {
  Matrix int <1> v;
  if (false) { v = init(Matrix int <1>, 3); }
  Matrix int <1> w = v + v;
  return dimSize(w, 0);
}
|},
      Some ("4:22-27", "use of an uninitialised matrix") );
    ( "writeMatrix of an uninitialised matrix",
      {|int main() {
  Matrix int <1> v;
  if (false) { v = init(Matrix int <1>, 3); }
  writeMatrix("o.data", v);
  return 0;
}
|},
      Some ("4:3-27", "use of an uninitialised matrix") );
    ( "slice of an uninitialised matrix",
      {|int main() {
  Matrix int <2> v;
  if (false) { v = init(Matrix int <2>, 3, 3); }
  Matrix int <2> w = v[:, :];
  return dimSize(w, 0);
}
|},
      Some ("4:22-29", "use of an uninitialised matrix") );
    ( "negative extent",
      {|int main() {
  int k = 0 - 3;
  Matrix float <1> m = init(Matrix float <1>, k);
  return dimSize(m, 0);
}
|},
      Some ("3:3-49", "negative matrix extent -3 in dimension 0") );
    ( "more elements than the limit",
      {|int main() {
  Matrix float <2> m = init(Matrix float <2>, 20000, 20000);
  return dimSize(m, 0);
}
|},
      Some
        ( "2:3-60",
          "shape [20000x20000] holds more than 268435456 elements" ) );
    ( "an element count that would wrap",
      {|int main() {
  Matrix int <5> m = init(Matrix int <5>, 65536, 65536, 65536, 65536, 65536);
  return m[1, 0, 0, 0, 0];
}
|},
      Some
        ( "2:3-77",
          "shape [65536x65536x65536x65536x65536] holds more than 268435456 \
           elements" ) );
    ( "NULL through a parameter",
      {|int f(Matrix int <1> a) { return dimSize(a, 0); }
int main() {
  Matrix int <1> v;
  return f(v);
}
|},
      Some ("1:34-47", "use of an uninitialised matrix") );
    ( "NULL returned by a call",
      {|Matrix int <1> f() {
  Matrix int <1> v;
  return v;
}
int main() {
  Matrix int <1> a = f();
  return dimSize(a, 0);
}
|},
      Some ("7:10-23", "use of an uninitialised matrix") );
    ( "NULL in a tuple part",
      {|(Matrix int <1>, int) f() {
  Matrix int <1> v;
  return (v, 1);
}
int main() {
  Matrix int <1> a = init(Matrix int <1>, 2);
  int k = 0;
  (a, k) = f();
  Matrix int <1> b = a + 1;
  return dimSize(b, 0);
}
|},
      Some ("9:22-27", "use of an uninitialised matrix") );
    ( "end of series",
      {|int main() {
  Matrix float <1> ts = with ([0] <= [k] < [8]) genarray ([8], 8.0 - (float) k);
  int n = dimSize(ts, 0);
  int i = 0;
  while (i + 1 < n && ts[i] >= ts[i + 1]) { i = i + 1; }
  return i;
}
|},
      None );
    ( "row slice read in place",
      {|int main() {
  Matrix float <2> grid = with ([0,0] <= [a,b] < [3,4]) genarray([3,4], 1.0);
  int i = 3;
  Matrix float <1> row = grid[i, :];
  int n = dimSize(row, 0);
  float total = with ([0] <= [k] < [n]) fold (+, 0f, row[k]);
  return (int) total;
}
|},
      Some ("4:26-36", "index 3 out of bounds for dimension 0 of extent 3") );
    ( "computed dimSize dimension",
      {|int main() {
  Matrix int <1> v = with ([0] <= [i] < [4]) genarray([4], i);
  int d = 3;
  return dimSize(v * 2, d);
}
|},
      Some ("4:10-27", "dimSize: dimension 3 out of range for [4]") );
    ( "negative extent in a loop body",
      {|float main() {
  float s = 0.0;
  for (int i = 0; i < 3; i = i + 1) {
    int k = 1 - i;
    Matrix float <1> m = init(Matrix float <1>, k);
    s = s + 1.0;
  }
  return s;
}
|},
      Some ("5:5-51", "negative matrix extent -1 in dimension 0") );
    ( "modulo by zero",
      {|int main() {
  int k = 0;
  return 10 % k;
}
|},
      Some ("3:3-16", "modulo by zero") );
    ( "division by zero in a loop body",
      {|int main() {
  int s = 0;
  for (int i = 0; i < 3; i = i + 1) {
    int k = 1 - i;
    s = s + 10 / k;
  }
  return s;
}
|},
      Some ("5:5-19", "integer division by zero") );
    ( "negative extent in a with-loop body",
      {|int main() {
  Matrix int <1> g = with ([0] <= [i] < [8]) genarray([8], dimSize(init(Matrix int <1>, 3 - i), 0));
  return g[0];
}
|},
      Some ("2:22-100", "negative matrix extent -1 in dimension 0") );
  ]

let test_one_report () =
  with_deadline ~secs:300 "one report" @@ fun () ->
  ignore (ensure_cc ());
  let report = function
    | Driver.Ok_ _ -> None
    | Driver.Failed (d :: _) ->
        Some
          ( Support.Pos.span_to_string d.Support.Diag.span,
            d.Support.Diag.message )
    | Driver.Failed [] -> Alcotest.fail "failed without diagnostics"
  in
  List.iter
    (fun (name, src, expected) ->
      List.iter
        (fun threads ->
          let label what = Printf.sprintf "%s, %d threads: %s" name threads what in
          let config =
            Driver.Pipeline.enable (Driver.default_config full) "auto-par"
              (threads > 1)
          in
          let run =
            Runtime.Pool.with_pool threads (fun pool ->
                report (Driver.run ~config ~pool full src []))
          in
          let exec =
            report
              (Driver.exec ~dir:(fresh_dir ()) ~config ~threads
                 ~cache_dir:(Lazy.force suite_cache) (Driver.Composed full) src)
          in
          Alcotest.(check (option (pair string string)))
            (label "interpreter") expected run;
          Alcotest.(check (option (pair string string)))
            (label "binary") expected exec)
        [ 1; 2 ])
    check_programs

(* --- native failpoints ---------------------------------------------------- *)

let genarray_src =
  {|float main() {
  Matrix float <3> g =
    with ([0,0,0] <= [i,j,k] < [3,4,5])
    genarray([3,4,5], (i + j + k) / 4.0);
  return with ([0,0,0] <= [i,j,k] < [3,4,5]) fold (+, 0.0, g[i,j,k]);
}
|}

let test_failpoint_alloc_diag () =
  with_deadline "native.alloc failpoint" @@ fun () ->
  ignore (ensure_cc ());
  let outcome =
    Driver.exec ~dir:(fresh_dir ()) ~cache_dir:(Lazy.force suite_cache)
      ~failpoints:"native.alloc@1" (Driver.Composed full) genarray_src
  in
  let text = failed_text ~src:genarray_src outcome in
  Alcotest.(check bool)
    (Printf.sprintf "names the failpoint (got: %s)" text)
    true
    (contains text "injected fault at failpoint native.alloc");
  Alcotest.(check bool) "no raw exit code" false (contains text "exit code")

let test_failpoint_crash_span () =
  (* A fired failpoint fails the run at the allocating statement, as a
     failed check does: the diagnostic must carry a caret excerpt, not
     anchor at the dummy span. *)
  with_deadline "failpoint crash span" @@ fun () ->
  ignore (ensure_cc ());
  let outcome =
    Driver.exec ~dir:(fresh_dir ()) ~cache_dir:(Lazy.force suite_cache)
      ~failpoints:"native.alloc@1" (Driver.Composed full) genarray_src
  in
  let text = failed_text ~src:genarray_src outcome in
  Alcotest.(check bool)
    (Printf.sprintf "failpoint named with caret (got: %s)" text)
    true
    (contains text "injected fault at failpoint native.alloc"
    && contains text "^")

let test_failpoint_read_matrix_diag () =
  with_deadline "native.io.read_matrix failpoint" @@ fun () ->
  ignore (ensure_cc ());
  let dir = fresh_dir () in
  let cube =
    Nd.init_float [| 2; 3; 4 |] (fun ix ->
        float_of_int ((ix.(0) * 5) + ix.(1) + ix.(2)))
  in
  Interp.Eval.provide_input ~dir "ssh.data" cube;
  let src = Eddy.Programs.fig1_temporal_mean in
  let outcome =
    Driver.exec ~dir ~cache_dir:(Lazy.force suite_cache)
      ~failpoints:"native.io.read_matrix@1" (Driver.Composed full) src
  in
  let text = failed_text ~src outcome in
  Alcotest.(check bool)
    (Printf.sprintf "names the failpoint (got: %s)" text)
    true
    (contains text "injected fault at failpoint native.io.read_matrix")

(* A matrixMap whose input is a genarray: both backends count the same
   allocations, so the third is the first fiber slice a lifted body
   allocates, whichever thread runs it. *)
let matrix_map_src =
  {|Matrix float <1> twice(Matrix float <1> v) {
  Matrix float <1> r = v * 2.0;
  return r;
}
int main() {
  Matrix float <2> a = with ([0,0] <= [i,j] < [3,4]) genarray([3,4], (float) (i + j));
  Matrix float <2> b = matrixMap(twice, a, [1]);
  return dimSize(b, 0);
}
|}

(* native.alloc firing in a lifted matrixMap body names the matrixMap,
   as the interpreter's ndarray.alloc on the same allocation does, at 1
   and 2 threads. *)
let test_failpoint_matrix_map_span () =
  with_deadline "failpoint in a matrixMap body" @@ fun () ->
  ignore (ensure_cc ());
  let report = function
    | Driver.Failed (d :: _) ->
        (Support.Pos.span_to_string d.Support.Diag.span, d.Support.Diag.message)
    | Driver.Failed [] -> Alcotest.fail "failed without diagnostics"
    | Driver.Ok_ _ -> Alcotest.fail "the failpoint did not fire"
  in
  List.iter
    (fun threads ->
      let config =
        Driver.Pipeline.enable (Driver.default_config full) "auto-par"
          (threads > 1)
      in
      let interp =
        Support.Failpoint.reset ();
        Support.Failpoint.arm_spec "ndarray.alloc@3";
        Fun.protect ~finally:Support.Failpoint.reset (fun () ->
            Runtime.Pool.with_pool threads (fun pool ->
                report (Driver.run ~config ~pool full matrix_map_src [])))
      in
      let native =
        report
          (Driver.exec ~dir:(fresh_dir ()) ~config ~threads
             ~failpoints:"native.alloc@3" ~cache_dir:(Lazy.force suite_cache)
             (Driver.Composed full) matrix_map_src)
      in
      let label = Printf.sprintf "%d threads" threads in
      Alcotest.(check (pair string string))
        (label ^ ": the interpreter names the matrixMap")
        ("7:24-48", "injected fault at failpoint ndarray.alloc")
        interp;
      Alcotest.(check (pair string string))
        (label ^ ": the binary names the matrixMap")
        ("7:24-48", "injected fault at failpoint native.alloc")
        native)
    [ 1; 2 ]

(* The C runtime knows two failpoints, each fired by a hit count; any
   other name, or a trigger that is not a hit count, fails the run with a
   diagnostic naming it, instead of running unfaulted or at random. *)
let test_failpoint_unknown_name () =
  with_deadline "unknown native failpoint" @@ fun () ->
  ignore (ensure_cc ());
  List.iter
    (fun (failpoints, needle) ->
      let outcome =
        Driver.exec ~dir:(fresh_dir ()) ~cache_dir:(Lazy.force suite_cache)
          ~failpoints (Driver.Composed full) genarray_src
      in
      let text = failed_text ~src:genarray_src outcome in
      Alcotest.(check bool)
        (Printf.sprintf "%s: names %s (got: %s)" failpoints needle text)
        true (contains text needle))
    [
      ("pool.worker_body@1", "no failpoint named \"pool.worker_body\"");
      ("native.alloc@0.5", "\"native.alloc@0.5\"");
    ]

(* --- supervisor deadline kill --------------------------------------------- *)

(* Two billion serially-dependent float adds: -O2 cannot fold them away
   (floating point is not associative without -ffast-math), so the
   binary genuinely spins until the supervisor kills it. *)
let spin_src =
  {|float main() {
  float acc = 0.0;
  for (int i = 0; i < 2000000000; i++) { acc = acc + 1.0; }
  return acc;
}
|}

let test_supervisor_timeout_kill () =
  with_deadline ~secs:60 "supervisor timeout" @@ fun () ->
  ignore (ensure_cc ());
  let t0 = Unix.gettimeofday () in
  let outcome =
    Driver.exec ~dir:(fresh_dir ()) ~cache_dir:(Lazy.force suite_cache)
      ~timeout_s:0.5 (Driver.Composed full) spin_src
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let text = failed_text ~src:spin_src outcome in
  Alcotest.(check bool)
    (Printf.sprintf "names the --timeout deadline (got: %s)" text)
    true
    (contains text "--timeout");
  Alcotest.(check bool) "no raw exit code" false (contains text "exit code");
  (* deadline + compile slack, not the loop's minutes *)
  Alcotest.(check bool)
    (Printf.sprintf "killed promptly (%.1fs)" elapsed)
    true (elapsed < 30.)

let test_timeout_telemetry () =
  with_deadline ~secs:60 "timeout telemetry" @@ fun () ->
  ignore (ensure_cc ());
  with_telemetry @@ fun () ->
  (match
     Driver.exec ~dir:(fresh_dir ()) ~cache_dir:(Lazy.force suite_cache)
       ~timeout_s:0.5 (Driver.Composed full) spin_src
   with
  | Driver.Ok_ _ -> Alcotest.fail "expected a timeout failure"
  | Driver.Failed _ -> ());
  match List.assoc_opt "native.timeout" (T.gauges ()) with
  | Some v when v >= 1. -> ()
  | v ->
      Alcotest.failf "native.timeout gauge: %s"
        (match v with None -> "absent" | Some f -> string_of_float f)

(* The deadline holds inside a parallel region: both OpenMP threads spin
   in [spin], and the child's SIGALRM ends the whole process on time.  It
   is reported as the deadline, not as a signal death.  At 3 s the two
   threads have burnt more CPU time than the deadline's wall clock, so
   a CPU-time cap derived from the deadline would kill them first. *)
let spin_par_src =
  {|float spin(int k) {
  float acc = 0.0;
  for (int j = 0; j < 4; j++) {
    for (int i = 0; i < 2000000000; i++) { acc = acc + 1.0; }
  }
  return acc;
}
float main() {
  Matrix float <1> m = with ([0] <= [k] < [2]) genarray([2], spin(k));
  return m[0];
}
|}

let test_timeout_in_parallel_region () =
  with_deadline ~secs:60 "timeout in a parallel region" @@ fun () ->
  ignore (ensure_cc ());
  let config =
    Driver.Pipeline.enable (Driver.default_config full) "auto-par" true
  in
  (match Driver.compile_to_c ~config ~exec_harness:true full spin_par_src with
  | Driver.Ok_ c ->
      Alcotest.(check bool) "spins inside an OpenMP region" true
        (contains c "#pragma omp parallel for")
  | Driver.Failed ds -> Alcotest.failf "emit: %s" (Driver.diags_to_string ds));
  List.iter
    (fun timeout_s ->
      with_telemetry @@ fun () ->
      let t0 = Unix.gettimeofday () in
      let outcome =
        Driver.exec ~config ~threads:2 ~dir:(fresh_dir ())
          ~cache_dir:(Lazy.force suite_cache) ~timeout_s (Driver.Composed full)
          spin_par_src
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      let text = failed_text ~src:spin_par_src outcome in
      let label = Printf.sprintf "--timeout %g" timeout_s in
      Alcotest.(check bool)
        (Printf.sprintf "%s: names the --timeout deadline (got: %s)" label text)
        true
        (contains text "--timeout");
      Alcotest.(check bool) (label ^ ": not a signal death") false
        (contains text "killed by");
      Alcotest.(check (option (float 0.))) (label ^ ": native.timeout")
        (Some 1.)
        (List.assoc_opt "native.timeout" (T.gauges ()));
      Alcotest.(check bool)
        (Printf.sprintf "%s: killed promptly (%.1fs)" label elapsed)
        true (elapsed < 30.))
    [ 0.5; 3. ]

(* --- the toolchain probe after a failed compile ------------------------------ *)

(* A compiler that rejects every -fsanitize= flag: the sanitized build
   fails first, and the probe it then runs names the missing sanitizer
   rather than passing the compile error on. *)
let test_sanitizer_rejected () =
  let tc = ensure_cc () in
  let cc = Filename.concat (fresh_dir ()) "cc.sh" in
  Out_channel.with_open_text cc (fun oc ->
      Printf.fprintf oc
        "#!/bin/sh\n\
         for a in \"$@\"; do case \"$a\" in -fsanitize=*) exit 1;; esac; \
         done\n\
         exec %s \"$@\"\n"
        (Filename.quote tc.Native.Toolchain.cc));
  Unix.chmod cc 0o755;
  let text =
    failed_text ~src:genarray_src
      (Driver.exec ~cc ~sanitize:"address" ~dir:(fresh_dir ())
         ~cache_dir:(fresh_dir ()) (Driver.Composed full) genarray_src)
  in
  Alcotest.(check bool)
    (Printf.sprintf "names the sanitizer (got: %s)" text)
    true
    (contains text "does not support -fsanitize=address")

(* --- signal deaths name the POSIX signal -------------------------------------- *)

(* A compiler whose linked "binary" is a script that kills itself with
   SIGQUIT: the supervisor reports the POSIX number and name, and the
   SIGKILL-only out-of-memory hint stays away. *)
let test_signal_death_named () =
  with_deadline "signal death named" @@ fun () ->
  let tc = ensure_cc () in
  let cc = Filename.concat (fresh_dir ()) "cc.sh" in
  Out_channel.with_open_text cc (fun oc ->
      Printf.fprintf oc
        "#!/bin/sh
\
         %s \"$@\" || exit $?\n\
         out= obj=\n\
         while [ $# -gt 0 ]; do\n\
        \  case \"$1\" in -o) out=$2 ;; -c) obj=1 ;; esac\n\
        \  shift\n\
         done\n\
         if [ -z \"$obj\" ] && [ -n \"$out\" ]; then\n\
        \  printf '#!/bin/sh\\nulimit -c 0\\nkill -QUIT $$\\n' > \"$out\"\n\
        \  chmod +x \"$out\"\n\
         fi\n"
        (Filename.quote tc.Native.Toolchain.cc));
  Unix.chmod cc 0o755;
  let text =
    failed_text ~src:genarray_src
      (Driver.exec ~cc ~dir:(fresh_dir ()) ~cache_dir:(fresh_dir ())
         (Driver.Composed full) genarray_src)
  in
  Alcotest.(check bool)
    (Printf.sprintf "names SIGQUIT (got: %s)" text)
    true
    (contains text "killed by SIGQUIT (signal 3)");
  Alcotest.(check bool)
    (Printf.sprintf "no out-of-memory hint (got: %s)" text)
    false (contains text "OOM")

(* A binary that exits with a code of 128 or more was not killed: it
   reads like any other exit, its stderr or else its code (a --cc wrapper
   compiles the program, then puts a script in the binary's place). *)
let test_high_exit_code () =
  with_deadline "high exit code" @@ fun () ->
  let tc = ensure_cc () in
  List.iter
    (fun (script, expected) ->
      let cc = Filename.concat (fresh_dir ()) "cc.sh" in
      Out_channel.with_open_text cc (fun oc ->
          Printf.fprintf oc
            "#!/bin/sh\n\
             %s \"$@\" || exit $?\n\
             out= obj=\n\
             while [ $# -gt 0 ]; do\n\
            \  case \"$1\" in -o) out=$2 ;; -c) obj=1 ;; esac\n\
            \  shift\n\
             done\n\
             if [ -z \"$obj\" ] && [ -n \"$out\" ]; then\n\
            \  printf '#!/bin/sh\\n%s\\n' > \"$out\"\n\
            \  chmod +x \"$out\"\n\
             fi\n"
            (Filename.quote tc.Native.Toolchain.cc)
            script);
      Unix.chmod cc 0o755;
      match
        Driver.exec ~cc ~dir:(fresh_dir ()) ~cache_dir:(fresh_dir ())
          (Driver.Composed full) genarray_src
      with
      | Driver.Ok_ _ -> Alcotest.failf "%s: the run succeeded" script
      | Driver.Failed ds ->
          Alcotest.(check (list string)) script [ expected ]
            (List.map (fun d -> d.Support.Diag.message) ds))
    [
      ("echo boom >&2; exit 137", "boom");
      ("exit 137", "native binary exited with code 137");
    ]

(* --- matrix files byte by byte --------------------------------------------- *)

let be32 n = String.init 4 (fun k -> Char.chr ((n lsr (8 * (3 - k))) land 0xff))

let le64 x =
  String.init 8 (fun k ->
      let byte = Int64.shift_right_logical x (8 * k) in
      Char.chr (Int64.to_int (Int64.logand byte 0xFFL)))

(* An MMAT3 file: magic, kind byte, big-endian rank and extents, zero
   bytes up to the next multiple of 64, then [payload] as given. *)
let mmat3 kind dims payload =
  let head =
    "MMAT3\n" ^ String.make 1 kind
    ^ be32 (List.length dims)
    ^ String.concat "" (List.map be32 dims)
  in
  let padded = (String.length head + 63) / 64 * 64 in
  head ^ String.make (padded - String.length head) '\000' ^ payload

(* Per element kind: its type name and a well-formed two-element
   payload (little-endian int64s, binary64 bits, 0/1 bytes). *)
let layout_kinds =
  [
    ('i', "int", le64 5L ^ le64 7L);
    ( 'f',
      "float",
      le64 (Int64.bits_of_float 1.0) ^ le64 (Int64.bits_of_float 2.5) );
    ('b', "bool", "\000\001");
  ]

(* Reads "in.data" as a vector of [ty] and returns its second element. *)
let read_src ty =
  Printf.sprintf
    "%s main() {\n\
    \  Matrix %s <1> v = readMatrix(\"in.data\");\n\
    \  return v[1];\n\
     }\n"
    ty ty

(* Files whose header is right but whose payload is not, derived from
   one kind's well-formed vector: (what, bytes). *)
let payload_faults (kind, _, payload) =
  let n = String.length payload in
  [
    ( "a payload cut by 1 byte",
      mmat3 kind [ 2 ] (String.sub payload 0 (n - 1)) );
    ("one trailing byte", mmat3 kind [ 2 ] (payload ^ "\000"));
  ]
  @
  if kind = 'b' then [ ("bool byte 2", mmat3 kind [ 2 ] "\000\002") ]
  else []

(* Every file both readers must reject: (what, bytes, a word the
   diagnostic must hold besides "readMatrix"). *)
let corrupt_files ((kind, _, payload) as k) =
  List.map (fun (what, bytes) -> (what, bytes, "")) (payload_faults k)
  @ [
      ( "a payload cut by one element",
        mmat3 kind [ 2 ] (String.sub payload 0 (String.length payload / 2)),
        "" );
      ("kind byte 'x'", mmat3 'x' [ 2 ] payload, "");
      ("rank 17", mmat3 kind (List.init 17 (fun _ -> 1)) payload, "");
      ("extent 2^24+1", mmat3 kind [ (1 lsl 24) + 1 ] payload, "");
      (* 2^192 elements: a product that wraps to 0 in 64 bits *)
      ("eight extents of 2^24", mmat3 kind (List.init 8 (fun _ -> 1 lsl 24)) "", "");
      ( "an MMAT1 text file",
        "MMAT1\n" ^ String.make 1 kind ^ be32 1 ^ be32 2 ^ "0\n1\n",
        "MMAT1" );
    ]

(* Headers both readers must reject with one report, word for word, at
   one span: (what, bytes, the report's distinctive words). *)
let header_faults (kind, _, payload) =
  let good = mmat3 kind [ 2 ] payload in
  [
    ( "a nonzero padding byte",
      String.mapi (fun i c -> if i = 30 then '\001' else c) good,
      "nonzero padding byte 1 at offset 30 (expected 0 up to the payload at \
       offset 64)" );
    ( "a file that ends inside the padding",
      String.sub good 0 40,
      "file is truncated at offset 40 (expected zero padding up to offset 64)"
    );
    ( "an MMAT2 file",
      "MMAT2\n" ^ String.make 1 kind ^ be32 1 ^ be32 2 ^ payload,
      "MMAT2 at offset 0 is the old unpadded binary format" );
  ]

let write_data ~dir bytes =
  Out_channel.with_open_bin (Filename.concat dir "in.data") (fun oc ->
      Out_channel.output_string oc bytes)

(* A run's diagnostic text, or None when it succeeded. *)
let diag_of ~src = function
  | Driver.Ok_ _ -> None
  | Driver.Failed ds -> Some (Driver.diags_to_string ~src ds)

(* --- sanitizer builds ------------------------------------------------------ *)

(* A 12x14x8 cube whose every series climbs, then dips three times, so
   fig8's trough loop, with its folded ranges and chain, runs; fig1
   reads it too. *)
let sanitizer_cube () =
  let series = [| 3.; 1.; 2.; 5.; 0.; 4.; 1.; 6. |] in
  Nd.init_float [| 12; 14; 8 |] (fun ix ->
      series.(ix.(2)) +. (0.01 *. float_of_int (ix.(0) + ix.(1))))

(* [src] under [-fsanitize=mode], any report fatal, reads the cube as
   ssh.data (a float payload the runtime maps) and writes [out] as the
   interpreter writes it, byte for byte. *)
let check_sanitized mode ~name ~src ~out =
  let dir_i = fresh_dir () and dir_n = fresh_dir () in
  List.iter
    (fun dir -> Interp.Eval.provide_input ~dir "ssh.data" (sanitizer_cube ()))
    [ dir_i; dir_n ];
  (match Driver.run ~dir:dir_i full src [] with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds ->
      Alcotest.failf "%s: interp failed: %s" name (Driver.diags_to_string ds));
  (match
     Driver.exec ~dir:dir_n ~cache_dir:(Lazy.force suite_cache) ~sanitize:mode
       ~cflags:[ "-fno-sanitize-recover=all" ] (Driver.Composed full) src
   with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds ->
      Alcotest.failf "-fsanitize=%s: %s failed: %s" mode name
        (Driver.diags_to_string ds));
  Alcotest.(check bool)
    (Printf.sprintf "-fsanitize=%s: %s's %s matches the interpreter's" mode
       name out)
    true
    (Test_native.data_bytes ~dir:dir_i out = Test_native.data_bytes ~dir:dir_n out)

let border_src =
  {|int main() {
  int n = 64;
  Matrix float <1> b = with ([1] <= [i] < [n - 1]) genarray ([n], 1.0 + (float) i);
  writeMatrix("border.data", b);
  return 0;
}
|}

let test_sanitized_corpus_runs () =
  with_deadline ~secs:300 "sanitized runs" @@ fun () ->
  ignore (ensure_cc ());
  let iv =
    match Driver.run full genarray_src [] with
    | Driver.Ok_ (Interp.Eval.VScal v) -> v
    | Driver.Ok_ _ -> Alcotest.fail "interp returned a non-scalar"
    | Driver.Failed ds ->
        Alcotest.failf "interp failed: %s" (Driver.diags_to_string ds)
  in
  List.iter
    (fun mode ->
      match Native.Toolchain.probe ~sanitize:mode () with
      | Error (Native.Toolchain.Sanitizer_unsupported _ as e) ->
          (* visible skip, not silence: the toolchain genuinely lacks it *)
          Printf.printf "SKIP: %s\n%!" (Native.Toolchain.describe_error e)
      | Error e ->
          Alcotest.failf "probe failed: %s" (Native.Toolchain.describe_error e)
      | Ok _ -> (
          match
            Driver.exec ~dir:(fresh_dir ()) ~cache_dir:(Lazy.force suite_cache)
              ~sanitize:mode (Driver.Composed full) genarray_src
          with
          | Driver.Failed ds ->
              Alcotest.failf "-fsanitize=%s run failed: %s" mode
                (Driver.diags_to_string ds)
          | Driver.Ok_ o ->
              (* sanitized binaries occupy their own cache slot: this is
                 the first sanitized build of this program, so it cannot
                 have hit the unsanitized entry *)
              Alcotest.(check bool)
                (mode ^ ": distinct cache slot")
                false o.Native.Exec.from_cache;
              Alcotest.(check bool)
                (mode ^ ": result matches the interpreter")
                true
                (o.Native.Exec.value = Native.Exec.RScal iv);
              (* the matrix-file reader and writer, on edge inputs *)
              Test_native.check_roundtrip ~label:("-fsanitize=" ^ mode)
                (fun ~dir ->
                  Driver.exec ~dir ~cache_dir:(Lazy.force suite_cache)
                    ~sanitize:mode (Driver.Composed full) Test_native.roundtrip_src);
              (* ... and on files it must reject: the diagnostic comes
                 from the runtime, not from the sanitizer *)
              List.iter
                (fun ((_, ty, _) as k) ->
                  let src = read_src ty in
                  List.iter
                    (fun (what, bytes) ->
                      let dir = fresh_dir () in
                      write_data ~dir bytes;
                      let text =
                        Option.value ~default:"(no failure)"
                          (diag_of ~src
                             (Driver.exec ~dir
                                ~cache_dir:(Lazy.force suite_cache)
                                ~sanitize:mode (Driver.Composed full) src))
                      in
                      Alcotest.(check bool)
                        (Printf.sprintf
                           "-fsanitize=%s: %s %s gives the readMatrix \
                            diagnostic only (got: %s)"
                           mode ty what text)
                        true
                        (contains text "readMatrix"
                        && (not (contains text "Sanitizer"))
                        && not (contains text "runtime error")))
                    (payload_faults k))
                layout_kinds;
              check_sanitized mode ~name:"fig1"
                ~src:Eddy.Programs.fig1_temporal_mean ~out:"means.data";
              check_sanitized mode ~name:"fig8" ~src:Eddy.Programs.fig8_scoring
                ~out:"temporalScores.data";
              (* the border starts zeroed; ASan fills a malloc block
                 that starts unset with 0xbe *)
              check_sanitized mode ~name:"border genarray" ~src:border_src
                ~out:"border.data"))
    [ "address"; "undefined" ]

(* A plain exec, a profiled exec and an address-sanitized exec of one
   program share a cache directory: each configuration links its own
   loader and compiles its own shared object, the cache holds no object
   file or executable, and all three agree with the interpreter. *)
let test_cache_layout_per_configuration () =
  with_deadline ~secs:300 "cache layout" @@ fun () ->
  ignore (ensure_cc ());
  match Native.Toolchain.probe ~sanitize:"address" () with
  | Error (Native.Toolchain.Sanitizer_unsupported _ as e) ->
      Printf.printf "SKIP: %s\n%!" (Native.Toolchain.describe_error e)
  | Error e ->
      Alcotest.failf "probe failed: %s" (Native.Toolchain.describe_error e)
  | Ok _ ->
      let expected =
        match Driver.run full genarray_src [] with
        | Driver.Ok_ (Interp.Eval.VScal v) -> Native.Exec.RScal v
        | Driver.Ok_ _ -> Alcotest.fail "interp returned a non-scalar"
        | Driver.Failed ds ->
            Alcotest.failf "interp failed: %s" (Driver.diags_to_string ds)
      in
      let cache_dir = fresh_dir () in
      let ok what = function
        | Driver.Ok_ x -> x
        | Driver.Failed ds ->
            Alcotest.failf "%s failed: %s" what (Driver.diags_to_string ds)
      in
      let exec ?sanitize () =
        Driver.exec ~dir:(fresh_dir ()) ~cache_dir ?sanitize
          (Driver.Composed full) genarray_src
      in
      List.iter
        (fun (what, (o : Native.Exec.outcome)) ->
          Alcotest.(check bool)
            (what ^ " agrees with run")
            true (o.value = expected))
        [
          ("exec", ok "exec" (exec ()));
          ( "profile --native",
            fst
              (ok "profile --native"
                 (Driver.profile_native ~dir:(fresh_dir ()) ~cache_dir
                    (Driver.Composed full) genarray_src)) );
          ( "exec --sanitize address",
            ok "exec --sanitize address" (exec ~sanitize:"address" ()) );
        ];
      let files = Array.to_list (Sys.readdir cache_dir) in
      let count p = List.length (List.filter p files) in
      Alcotest.(check int) "three loaders" 3
        (count (String.starts_with ~prefix:"mm_loader-"));
      Alcotest.(check int) "three shared objects" 3
        (count (fun f -> Filename.check_suffix f ".so"));
      Alcotest.(check int) "no object file or executable" 0
        (count (fun f ->
             Filename.check_suffix f ".o" || Filename.check_suffix f ".exe"))

(* --- one file layout in both backends -------------------------------------- *)

(* Every file in [corrupt_files], for every kind, must fail both
   [Driver.run] and [Driver.exec] with a readMatrix diagnostic (the
   MMAT1 file's names the old format), and every file in
   [header_faults] with the same report in both, while the well-formed
   file loads in both. *)
let test_file_layout_parity () =
  with_deadline ~secs:300 "file layout parity" @@ fun () ->
  ignore (ensure_cc ());
  let run_both src bytes =
    let dir = fresh_dir () in
    write_data ~dir bytes;
    [
      ("interp", diag_of ~src (Driver.run ~dir full src []));
      ( "native",
        diag_of ~src
          (Driver.exec ~dir ~cache_dir:(Lazy.force suite_cache) (Driver.Composed full) src) );
    ]
  in
  List.iter
    (fun ((kind, ty, payload) as k) ->
      let src = read_src ty in
      List.iter
        (fun (backend, diag) ->
          Option.iter
            (Alcotest.failf "%s %s control failed: %s" ty backend)
            diag)
        (run_both src (mmat3 kind [ 2 ] payload));
      List.iter
        (fun (what, bytes, needle) ->
          List.iter
            (fun (backend, diag) ->
              let text = Option.value diag ~default:"(no failure)" in
              Alcotest.(check bool)
                (Printf.sprintf "%s %s rejects %s (got: %s)" ty backend what
                   text)
                true
                (contains text "readMatrix" && contains text needle))
            (run_both src bytes))
        (corrupt_files k);
      List.iter
        (fun (what, bytes, words) ->
          let dir = fresh_dir () in
          write_data ~dir bytes;
          let report backend = function
            | Driver.Failed [ d ] ->
                ( Support.Pos.span_to_string d.Support.Diag.span,
                  d.Support.Diag.message )
            | Driver.Failed ds ->
                Alcotest.failf "%s %s, %s: %d diagnostics: %s" ty what backend
                  (List.length ds) (Driver.diags_to_string ds)
            | Driver.Ok_ _ -> Alcotest.failf "%s %s: %s read it" ty what backend
          in
          let interp = report "interp" (Driver.run ~dir full src []) in
          let native =
            report "native"
              (Driver.exec ~dir ~cache_dir:(Lazy.force suite_cache)
                 (Driver.Composed full) src)
          in
          Alcotest.(check (pair string string))
            (Printf.sprintf "%s %s: one report in both backends" ty what)
            interp native;
          Alcotest.(check bool)
            (Printf.sprintf "%s %s names the fault (got: %s)" ty what
               (snd native))
            true
            (contains (snd native) "readMatrix" && contains (snd native) words))
        (header_faults k))
    layout_kinds

(* A file that cannot be opened fails both backends with one
   diagnostic: the span of the statement doing the I/O, the file's full
   path and the system's reason.  A missing input, and an output whose
   name is taken by a directory, each at the top level and in a loop
   body. *)
let test_unopenable_file_parity () =
  ignore (ensure_cc ());
  let diag backend = function
    | Driver.Failed [ d ] ->
        (Support.Pos.span_to_string d.Support.Diag.span, d.Support.Diag.message)
    | Driver.Failed ds ->
        Alcotest.failf "%s: %d diagnostics: %s" backend (List.length ds)
          (Driver.diags_to_string ds)
    | Driver.Ok_ _ -> Alcotest.failf "%s opened the file" backend
  in
  let both ~dir src =
    let interp = diag "interpreter" (Driver.run ~dir full src []) in
    let native =
      diag "binary"
        (Driver.exec ~dir ~cache_dir:(Lazy.force suite_cache)
           (Driver.Composed full) src)
    in
    Alcotest.(check (pair string string)) "one diagnostic in both backends"
      interp native;
    native
  in
  let expect ~dir ~span what file reason (got_span, message) =
    let file = Filename.concat (Unix.realpath dir) file in
    Alcotest.(check string) (what ^ ": the statement's span") span got_span;
    Alcotest.(check string) (what ^ ": full path and reason")
      (Printf.sprintf "%s %S: cannot open: %s: %s" what file file reason)
      message
  in
  let dir = fresh_dir () in
  expect ~dir ~span:"3:3-48" "readMatrix" "ssh.data" "No such file or directory"
    (both ~dir Eddy.Programs.fig1_temporal_mean);
  let dir = fresh_dir () in
  Sys.mkdir (Filename.concat dir "out.data") 0o755;
  expect ~dir ~span:"3:3-29" "writeMatrix" "out.data" "Is a directory"
    (both ~dir
       "int main() {\n\
       \  Matrix int <1> v = with ([0] <= [i] < [4]) genarray([4], i);\n\
       \  writeMatrix(\"out.data\", v);\n\
       \  return 1;\n\
        }\n");
  let dir = fresh_dir () in
  expect ~dir ~span:"4:5-52" "readMatrix" "missing.data"
    "No such file or directory"
    (both ~dir
       "int main() {\n\
       \  int s = 0;\n\
       \  for (int i = 0; i < 3; i = i + 1) {\n\
       \    Matrix float <1> m = readMatrix(\"missing.data\");\n\
       \    s = s + dimSize(m, 0);\n\
       \  }\n\
       \  return s;\n\
        }\n");
  let dir = fresh_dir () in
  Sys.mkdir (Filename.concat dir "out.data") 0o755;
  expect ~dir ~span:"4:5-31" "writeMatrix" "out.data" "Is a directory"
    (both ~dir
       "int main() {\n\
       \  Matrix int <1> v = with ([0] <= [i] < [4]) genarray([4], i);\n\
       \  for (int i = 0; i < 2; i = i + 1) {\n\
       \    writeMatrix(\"out.data\", v);\n\
       \  }\n\
       \  return 1;\n\
        }\n")

(* --- checked emission is warning-clean -------------------------------------- *)

let test_corpus_werror () =
  with_deadline ~secs:300 "corpus -Werror" @@ fun () ->
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
            Native.Cache.write_sources ~dir:build ~k:(Printf.sprintf "g%d" i)
              c_text
          in
          match
            Native.Toolchain.compile werror ~c_files
              ~out:(Filename.concat build (Printf.sprintf "g%d.exe" i))
          with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "%s not warning-clean under -Werror: %s"
                name
                (Native.Toolchain.describe_error e)))
    [
      ("fig1", Eddy.Programs.fig1_temporal_mean);
      ("fig4", Eddy.Programs.fig4_conncomp);
      ("fig8", Eddy.Programs.fig8_scoring);
      ("oob", oob_src);
    ]

(* --- the native fault matrix ------------------------------------------------ *)

(* {native.alloc, native.io.read_matrix} x {sequential, 2 OpenMP threads}
   x {fire on the 1st hit, fire on the 5th}: eight cells through Fig 1's
   temporal mean.  No cell may hang, raise
   an OCaml exception or report a bare exit code.  Each cell gives the
   bit-exact oracle output (a failpoint the run never reached) or an
   error diagnostic, and the thread count changes neither: the cells at
   1 and 2 threads give the same output or the same message. *)
let test_native_fault_matrix () =
  with_deadline ~secs:480 "native fault matrix" @@ fun () ->
  ignore (ensure_cc ());
  let cube =
    Nd.init_float [| 4; 5; 30 |] (fun ix ->
        float_of_int ((ix.(0) * 7) + (ix.(1) * 3) + ix.(2)) /. 11.0)
  in
  let src = Eddy.Programs.fig1_temporal_mean in
  (* the output, or the first diagnostic's message *)
  let run_case ?failpoints ~threads label =
    let dir = fresh_dir () in
    Interp.Eval.provide_input ~dir "ssh.data" cube;
    match
      Driver.exec ~dir ~config:(Driver.Pipeline.enable (Driver.default_config full) "auto-par" true)
        ~threads ?failpoints
        ~cache_dir:(Lazy.force suite_cache) (Driver.Composed full) src
    with
    | Driver.Ok_ _ -> Ok (Interp.Eval.fetch_output ~dir "means.data")
    | Driver.Failed [] -> Alcotest.failf "%s: failed without diagnostics" label
    | Driver.Failed ((d : Support.Diag.t) :: _) ->
        if d.Support.Diag.severity <> Support.Diag.Error then
          Alcotest.failf "%s: non-error diagnostic" label;
        if contains d.Support.Diag.message "exit code" then
          Alcotest.failf "%s: untriaged exit code: %s" label
            d.Support.Diag.message;
        Error d.Support.Diag.message
  in
  let oracle =
    match run_case ~threads:1 "clean run" with
    | Ok m -> m
    | Error m -> Alcotest.failf "clean run failed: %s" m
  in
  List.iter
    (fun fp_name ->
      List.iter
        (fun k ->
          let label = Printf.sprintf "%s@%d" fp_name k in
          let at threads =
            run_case ~failpoints:label ~threads
              (Printf.sprintf "%s t%d" label threads)
          in
          match (at 1, at 2) with
          | Ok m1, Ok m2 ->
              Alcotest.check nd (label ^ " t1: output is the oracle") oracle m1;
              Alcotest.check nd (label ^ " t2: output is the oracle") oracle m2
          | Error d1, Error d2 ->
              Alcotest.(check string)
                (label ^ ": same diagnostic at 1 and 2 threads")
                d1 d2
          | Ok _, Error d | Error d, Ok _ ->
              Alcotest.failf
                "%s: one thread count failed (%s), the other did not" label d)
        [ 1; 5 ])
    [ "native.alloc"; "native.io.read_matrix" ]

(* --- the acceptance scenario ------------------------------------------------ *)

(* A fault-injected crash mid-parallel native run of the eddy detection
   program fails it with the failpoint's diagnostic, after exactly one
   run of the binary. *)
let test_eddy_native_fault_acceptance () =
  with_deadline ~secs:300 "eddy native fault" @@ fun () ->
  ignore (ensure_cc ());
  with_telemetry @@ fun () ->
  let cube, dates =
    let c, _ =
      Eddy.Ssh_gen.generate ~lat:10 ~lon:12 ~time:3 ~n_eddies:2 ~seed:11 ()
    in
    (c, Nd.init_int [| 3 |] (fun ix -> 1012000 + ix.(0)))
  in
  let src = Eddy.Programs.fig4_conncomp in
  let dir = fresh_dir () in
  Interp.Eval.provide_input ~dir "ssh.data" cube;
  Interp.Eval.provide_input ~dir "dates.data" dates;
  let text =
    failed_text ~src
      (Driver.exec ~dir
         ~config:
           (Driver.Pipeline.enable (Driver.default_config full) "auto-par" true)
         ~threads:2 ~failpoints:"native.alloc@1"
         ~cache_dir:(Lazy.force suite_cache) (Driver.Composed full) src)
  in
  Alcotest.(check bool)
    (Printf.sprintf "names the failpoint (got: %s)" text)
    true
    (contains text "injected fault at failpoint native.alloc");
  Alcotest.(check int) "the binary ran once" 1
    (List.length
       (List.filter
          (fun (sp : T.span) -> sp.T.sp_name = "native.run")
          (T.spans ())))

(* --- a missing data directory ---------------------------------------------- *)

(* A data directory that does not exist fails run and exec alike, with
   a diagnostic naming it, also for rand00, which touches no file. *)
let test_missing_data_dir () =
  with_deadline ~secs:300 "missing data dir" @@ fun () ->
  ignore (ensure_cc ());
  let dir = Filename.concat (fresh_dir ()) "absent" in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun (backend, diag) ->
          let text = Option.value diag ~default:"(no failure)" in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s names the missing directory (got: %s)"
               name backend text)
            true
            (contains text (Printf.sprintf "data directory %S" dir)))
        [
          ("interp", diag_of ~src (Driver.run ~dir full src []));
          ( "native",
            diag_of ~src
              (Driver.exec ~dir ~cache_dir:(Lazy.force suite_cache) (Driver.Composed full) src)
          );
        ])
    [
      ( "rand00",
        In_channel.with_open_bin "golden/rand00.mc" In_channel.input_all );
      ("fig1_temporal_mean", Eddy.Programs.fig1_temporal_mean);
    ]

(* A --cache-dir that is a regular file, or lies under one, fails with
   one diagnostic naming it (the CLI exits 1, not with an uncaught
   Sys_error); a nested path that does not exist yet is created. *)
let test_unusable_cache_dir () =
  with_deadline ~secs:300 "unusable cache dir" @@ fun () ->
  ignore (ensure_cc ());
  let root = fresh_dir () in
  let file = Filename.concat root "plain-file" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "x");
  let src = "int main() { return 7; }\n" in
  List.iter
    (fun cache_dir ->
      let text =
        Option.value ~default:"(no failure)"
          (diag_of ~src (Driver.exec ~cache_dir (Driver.Composed full) src))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s is named (got: %s)" cache_dir text)
        true
        (contains text (Printf.sprintf "cache directory %S" cache_dir));
      let mmc = Filename.concat (Filename.concat ".." "bin") "mmc.exe" in
      let prog = Filename.concat root "prog.mc" in
      Out_channel.with_open_bin prog (fun oc -> output_string oc src);
      let err = Filename.concat root "err" in
      let code =
        Sys.command
          (Printf.sprintf "%s exec --cache-dir %s %s > /dev/null 2> %s"
             (Filename.quote mmc) (Filename.quote cache_dir)
             (Filename.quote prog) (Filename.quote err))
      in
      let err = In_channel.with_open_bin err In_channel.input_all in
      Alcotest.(check int) (cache_dir ^ ": mmc exec exits 1") 1 code;
      Alcotest.(check bool) (cache_dir ^ ": no internal error") false
        (contains err "internal error"))
    [ file; Filename.concat (Filename.concat file "sub") "dir" ];
  let nested =
    List.fold_left Filename.concat root [ "a"; "b"; "c" ]
  in
  match Driver.exec ~cache_dir:nested (Driver.Composed full) src with
  | Driver.Ok_ { Native.Exec.value = Native.Exec.RScal v; _ } ->
      Alcotest.(check int) "a nested new cache dir works" 7
        (Runtime.Scalar.to_int v);
      Alcotest.(check bool) "and exists" true (Sys.is_directory nested)
  | Driver.Ok_ _ -> Alcotest.fail "nested cache dir: unexpected value"
  | Driver.Failed ds ->
      Alcotest.failf "nested cache dir: %s" (Driver.diags_to_string ds)

let suite =
  [
    Alcotest.test_case "signal exits decode, never raw codes" `Quick
      test_describe_signal_exit;
    Alcotest.test_case "result-protocol parser is total" `Quick
      test_parse_output_total;
    Alcotest.test_case "span strings round-trip" `Quick
      test_span_string_roundtrip;
    Alcotest.test_case "OOB subscript renders a caret" `Quick test_oob_caret;
    Alcotest.test_case "checks: one report, both backends" `Quick
      test_one_report;
    Alcotest.test_case "failpoint: native.alloc diagnostic" `Quick
      test_failpoint_alloc_diag;
    Alcotest.test_case "failpoint: crash span" `Quick
      test_failpoint_crash_span;
    Alcotest.test_case "failpoint: native.io.read_matrix diagnostic" `Quick
      test_failpoint_read_matrix_diag;
    Alcotest.test_case "supervisor: deadline kill names --timeout" `Quick
      test_supervisor_timeout_kill;
    Alcotest.test_case "supervisor: timeout exports telemetry" `Quick
      test_timeout_telemetry;
    Alcotest.test_case "sanitizers: corpus runs under asan/ubsan" `Quick
      test_sanitized_corpus_runs;
    Alcotest.test_case "corpus emits -Werror-clean C" `Quick test_corpus_werror;
    Alcotest.test_case "native fault matrix: 8 cells" `Quick
      test_native_fault_matrix;
    Alcotest.test_case "acceptance: native fault fails once" `Quick
      test_eddy_native_fault_acceptance;
    Alcotest.test_case "readMatrix: one file layout, both backends" `Quick
      test_file_layout_parity;
    Alcotest.test_case "data dir: a missing one fails both backends" `Quick
      test_missing_data_dir;
    Alcotest.test_case "cache dir: unusable ones fail, nested ones work"
      `Quick test_unusable_cache_dir;
    Alcotest.test_case "failpoint: unknown name is an error" `Quick
      test_failpoint_unknown_name;
    Alcotest.test_case "supervisor: deadline holds in a parallel region"
      `Quick test_timeout_in_parallel_region;
    Alcotest.test_case "toolchain: a rejected sanitizer is named" `Quick
      test_sanitizer_rejected;
    Alcotest.test_case "supervisor: a signal death names the POSIX signal"
      `Quick test_signal_death_named;
    Alcotest.test_case "supervisor: an exit code of 128 or more is a code"
      `Quick test_high_exit_code;
    Alcotest.test_case "cache: a loader and a program per configuration"
      `Quick test_cache_layout_per_configuration;
    Alcotest.test_case "an unopenable file: one diagnostic, both backends"
      `Quick test_unopenable_file_parity;
    Alcotest.test_case "failpoint: a matrixMap body names the matrixMap"
      `Quick test_failpoint_matrix_map_span;
  ]
