(* Pipeline-equivalence suite: the compiler against the blessed oracle
   under test/golden/ (regenerate with golden_gen.ml only when the
   *intended* output changes; `make golden-check` fails when the
   committed fixtures drift from what it generates), plus the
   pass-manager guarantees: exactly-once lowering, per-pass timing
   spans, the --passes reordering payoff, the diff-size cap, and the
   caret-free unknown-pass diagnostics. *)

module R = Support.Remark
module S = Runtime.Scalar

let all4 =
  Driver.compose
    [ Driver.matrix; Driver.transform; Driver.refptr; Driver.cilk ]

let golden_dir = "golden"
let read path = In_channel.with_open_bin path In_channel.input_all

let contains needle hay =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Every fixture stem, from the committed .mc files themselves — a stem
   silently missing from the corpus would hollow the suite out. *)
let stems =
  Sys.readdir golden_dir |> Array.to_list
  |> List.filter_map (Filename.chop_suffix_opt ~suffix:".mc")
  |> List.sort compare

let emit ~auto_par src =
  let config = Driver.Pipeline.enable (Driver.default_config all4) "auto-par" auto_par in
  match Driver.compile_to_c ~config all4 src with
  | Driver.Ok_ text -> text
  | Driver.Failed ds ->
      Alcotest.failf "emit failed: %s" (Driver.diags_to_string ds)

(* --- emitted C, byte for byte ------------------------------------------- *)

let test_emitted_c_matches_oracle () =
  Alcotest.(check bool) "corpus is non-trivial" true (List.length stems >= 25);
  List.iter
    (fun stem ->
      let src = read (Filename.concat golden_dir (stem ^ ".mc")) in
      List.iter
        (fun (ext, auto_par) ->
          let oracle = read (Filename.concat golden_dir (stem ^ ext)) in
          Alcotest.(check string)
            (Printf.sprintf "%s%s bit-identical" stem ext)
            oracle (emit ~auto_par src))
        [ (".par.c", true); (".seq.c", false) ])
    stems

(* The composed grammar comes from a snapshot built in canonical
   extension order, whatever order the user selects extensions in.  With
   the pass pipeline pinned (the selection order is also the default pass
   order), a permuted selection must emit the oracle's C byte for byte. *)
let test_permuted_selection_matches_oracle () =
  let permuted =
    Driver.compose
      [ Driver.cilk; Driver.refptr; Driver.transform; Driver.matrix ]
  in
  List.iter
    (fun stem ->
      let src = read (Filename.concat golden_dir (stem ^ ".mc")) in
      List.iter
        (fun (ext, auto_par) ->
          let config = Driver.Pipeline.enable (Driver.default_config all4) "auto-par" auto_par in
          match Driver.compile_to_c ~config permuted src with
          | Driver.Ok_ text ->
              Alcotest.(check string)
                (Printf.sprintf "%s%s bit-identical under permuted -x" stem ext)
                (read (Filename.concat golden_dir (stem ^ ext)))
                text
          | Driver.Failed ds ->
              Alcotest.failf "%s: emit failed: %s" stem
                (Driver.diags_to_string ds))
        [ (".par.c", true); (".seq.c", false) ])
    stems

(* --- interpreter results, byte for byte --------------------------------- *)

(* Lowered with auto-par and at -O0 (every pass disabled: the baseline
   lowering, slice copies included), each program runs once without a
   pool and once on a 4-worker pool, so its ParFor bodies also run on
   other domains. *)
let test_run_results_match_oracle () =
  let check ?pool (config, level) =
    let label =
      Printf.sprintf "%s, %s" level
        (if pool = None then "no pool" else "4 workers")
    in
    List.iter
      (fun stem ->
        let out = Filename.concat golden_dir (stem ^ ".out") in
        if Sys.file_exists out then
          let src = read (Filename.concat golden_dir (stem ^ ".mc")) in
          match Driver.run ~config ?pool all4 src [] with
          | Driver.Ok_ v ->
              Alcotest.(check string)
                (Printf.sprintf "%s.out bit-identical (%s)" stem label)
                (read out)
                (Fmt.str "%a" Interp.Eval.pp_value v)
          | Driver.Failed ds ->
              Alcotest.failf "%s: run failed (%s): %s" stem label
                (Driver.diags_to_string ds))
      stems
  in
  let levels =
    [
      (Driver.Pipeline.enable (Driver.default_config all4) "auto-par" true,
        "auto-par");
      (Driver.Pipeline.set_all (Driver.default_config all4) false, "-O0");
    ]
  in
  List.iter check levels;
  Runtime.Pool.with_pool 4 (fun pool -> List.iter (check ~pool) levels)

(* --- the blessed explain report ------------------------------------------ *)

let test_explain_report_matches_oracle () =
  let src = read (Filename.concat golden_dir "transform_tiling.mc") in
  match Driver.explain all4 src with
  | Driver.Ok_ _, report ->
      Alcotest.(check string) "default explain bit-identical"
        (read (Filename.concat golden_dir "transform_tiling.explain"))
        (Driver.Explain_report.to_string ~src report)
  | Driver.Failed ds, _ ->
      Alcotest.failf "explain failed: %s" (Driver.diags_to_string ds)

(* --- exactly-once lowering ------------------------------------------------ *)

(* The refactor's headline: explain with every snapshot requested lowers
   once (the old driver re-lowered the program per requested stage), and
   the snapshots do not perturb the remark stream. *)
let test_explain_lowers_exactly_once () =
  let src = read (Filename.concat golden_dir "transform_tiling.mc") in
  let remarks dump_passes =
    let before = !Cminus.Lower.runs in
    match Driver.explain ~dump_passes all4 src with
    | Driver.Ok_ _, report ->
        Alcotest.(check int)
          (Printf.sprintf "dump=%s lowers exactly once"
             (String.concat "," dump_passes))
          1
          (!Cminus.Lower.runs - before);
        report.Driver.Explain_report.remarks
    | Driver.Failed ds, _ ->
        Alcotest.failf "explain failed: %s" (Driver.diags_to_string ds)
  in
  let plain = remarks [] in
  let dumped = remarks [ "all" ] in
  Alcotest.(check int) "same remark count with --dump-ir=all"
    (List.length plain) (List.length dumped);
  List.iter2
    (fun (a : R.t) (b : R.t) ->
      Alcotest.(check string) "same remark text" a.R.message b.R.message;
      Alcotest.(check string) "same pass" a.R.pass b.R.pass)
    plain dumped

(* --- per-pass timing spans ----------------------------------------------- *)

let test_pass_timing_spans () =
  Support.Telemetry.reset ();
  Support.Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Support.Telemetry.set_enabled false)
  @@ fun () ->
  let src = read (Filename.concat golden_dir "transform_tiling.mc") in
  (match Driver.run all4 src [] with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds ->
      Alcotest.failf "run failed: %s" (Driver.diags_to_string ds));
  let spans = Support.Telemetry.span_totals () in
  List.iter
    (fun pass ->
      let name = "pass." ^ pass in
      match List.find_opt (fun (n, _, _) -> n = name) spans with
      | Some (_, calls, s) ->
          Alcotest.(check int) (name ^ " runs once") 1 calls;
          Alcotest.(check bool) (name ^ " is non-negative") true (s >= 0.)
      | None -> Alcotest.failf "span %s not recorded" name)
    [ "fuse"; "copy-elim"; "auto-par"; "transform"; "rc" ]

(* --- --passes reordering: the payoff -------------------------------------- *)

(* A script that binds the sequential nest but not the auto-parallelized
   one.  Under the default order (auto-par before transform) it
   warn-and-skips; running transform first lets it apply, and auto-par
   still promotes the transformed nest. *)
let reorder_src =
  {|
int main() {
  int m = 8;
  int n = 8;
  Matrix float <2> g = init(Matrix float <2>, m, n);
  g = with ([0,0] <= [i,j] < [m,n]) genarray ([m,n], (float)(i * n + j))
    transform interchange i, j;
  return (int)(with ([0,0] <= [i,j] < [m,n]) fold (+, 0f, g[i, j]));
}
|}

let reordered_config () =
  match
    Driver.Pipeline.of_spec (Driver.default_config all4)
      [ "transform"; "auto-par" ]
  with
  | Ok cfg -> cfg
  | Error bad -> Alcotest.failf "of_spec rejected %S" bad

let count ~pass ~kind remarks = List.length (R.filter ~pass ~kind remarks)

let test_reorder_applies_skipped_script () =
  (* default order, auto-par on: the script cannot bind *)
  (match Driver.explain all4 reorder_src with
  | Driver.Ok_ _, report ->
      let rs = report.Driver.Explain_report.remarks in
      Alcotest.(check int) "default: script skipped" 1
        (count ~pass:"transform" ~kind:R.Skipped rs);
      Alcotest.(check int) "default: nothing applied" 0
        (count ~pass:"transform" ~kind:R.Applied rs)
  | Driver.Failed ds, _ ->
      Alcotest.failf "explain failed: %s" (Driver.diags_to_string ds));
  (* transform first: the same script applies, and auto-par still fires *)
  match Driver.explain ~config:(reordered_config ()) all4 reorder_src with
  | Driver.Ok_ _, report ->
      let rs = report.Driver.Explain_report.remarks in
      Alcotest.(check int) "reordered: script applied" 1
        (count ~pass:"transform" ~kind:R.Applied rs);
      Alcotest.(check int) "reordered: no skip" 0
        (count ~pass:"transform" ~kind:R.Skipped rs);
      Alcotest.(check bool) "reordered: auto-par still promotes" true
        (count ~pass:"auto-par" ~kind:R.Applied rs >= 1)
  | Driver.Failed ds, _ ->
      Alcotest.failf "explain failed: %s" (Driver.diags_to_string ds)

(* Native execution under the reordered pipeline agrees with the
   interpreter bit-for-bit (and its binary occupies its own cache slot —
   the canonical pipeline string is part of the key). *)
let test_reorder_native_matches_interp () =
  (match Native.Toolchain.probe () with
  | Ok _ -> ()
  | Error e ->
      Printf.printf "SKIP: no C compiler (%s)\n%!"
        (Native.Toolchain.describe_error e);
      Alcotest.skip ());
  let config = reordered_config () in
  let iv =
    match Driver.run ~config all4 reorder_src [] with
    | Driver.Ok_ v -> Fmt.str "%a" Interp.Eval.pp_value v
    | Driver.Failed ds ->
        Alcotest.failf "interp failed: %s" (Driver.diags_to_string ds)
  in
  let dir = Filename.temp_file "mmgolden" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  match Driver.exec ~config ~dir ~cache_dir:dir (Driver.Composed all4) reorder_src with
  | Driver.Ok_ o ->
      Alcotest.(check string) "native value = interp value" iv
        (Fmt.str "%a" Native.Exec.pp_value o.Native.Exec.value)
  | Driver.Failed ds ->
      Alcotest.failf "native failed: %s" (Driver.diags_to_string ds)

(* Differently-ordered pipelines must never share a cached binary even
   when they emit identical C today. *)
let test_cache_key_separates_pipelines () =
  match Native.Toolchain.probe () with
  | Error _ -> Alcotest.skip ()
  | Ok tc ->
      let k p = Native.Cache.key ~toolchain:tc ~pipeline:p "int main(){}" in
      let default_ = Driver.Pipeline.canon (Driver.default_config all4) in
      let reordered = Driver.Pipeline.canon (reordered_config ()) in
      Alcotest.(check bool) "configs render differently" true
        (default_ <> reordered);
      Alcotest.(check bool) "distinct cache keys" true
        (k default_ <> k reordered)

(* Where a disabled pass sits does not matter: it splices its sites
   before any enabled pass runs.  [--passes fuse,copy-elim,transform]
   (auto-par disabled, listed after transform) and the registration
   order with auto-par off are one pipeline — one canonical string, and
   auto-par reports fig9_transformed's loops once each, not once more
   for every copy transform made. *)
let test_disabled_pass_position () =
  let by_spec =
    match
      Driver.Pipeline.of_spec (Driver.default_config all4)
        [ "fuse"; "copy-elim"; "transform" ]
    with
    | Ok cfg -> cfg
    | Error bad -> Alcotest.failf "of_spec rejected %S" bad
  in
  let by_enable =
    Driver.Pipeline.enable (Driver.default_config all4) "auto-par" false
  in
  Alcotest.(check string) "one canonical string"
    (Driver.Pipeline.canon by_enable)
    (Driver.Pipeline.canon by_spec);
  let src = read (Filename.concat golden_dir "fig9_transformed.mc") in
  let auto_par config =
    match Driver.explain ~config all4 src with
    | Driver.Ok_ _, report ->
        R.to_string ~src
          (R.filter ~pass:"auto-par" report.Driver.Explain_report.remarks)
    | Driver.Failed ds, _ ->
        Alcotest.failf "explain failed: %s" (Driver.diags_to_string ds)
  in
  Alcotest.(check string) "the same auto-par remarks" (auto_par by_enable)
    (auto_par by_spec)

(* --- unknown pass names --------------------------------------------------- *)

let test_of_spec_rejects_unknown () =
  (match
     Driver.Pipeline.of_spec (Driver.default_config all4) [ "fuse"; "bogus" ]
   with
  | Error bad -> Alcotest.(check string) "names the culprit" "bogus" bad
  | Ok _ -> Alcotest.fail "of_spec accepted an unknown pass");
  Alcotest.(check (list string)) "known passes, registration order"
    [ "fuse"; "copy-elim"; "auto-par"; "transform" ]
    (Driver.Pipeline.known (Driver.default_config all4))

let mmc_exe = Filename.concat (Filename.concat ".." "bin") "mmc.exe"

let test_cli_unknown_pass_diagnostic () =
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ()
  else begin
    let dir = Filename.temp_file "mmgolden" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    let prog = Filename.concat dir "prog.mc" in
    Out_channel.with_open_text prog (fun oc ->
        output_string oc "int main() { return 0; }\n");
    let err = Filename.concat dir "err.txt" in
    let code =
      Sys.command
        (Printf.sprintf "%s emit --passes fuse,bogus %s > /dev/null 2> %s"
           (Filename.quote mmc_exe) (Filename.quote prog) (Filename.quote err))
    in
    Alcotest.(check int) "exits 2" 2 code;
    let text = In_channel.with_open_text err In_channel.input_all in
    Alcotest.(check bool) "names the unknown pass" true
      (contains "unknown --passes pass \"bogus\"" text);
    Alcotest.(check bool) "lists the known passes" true
      (contains "fuse, copy-elim, auto-par, transform" text);
    Alcotest.(check bool) "no caret art" false (contains "^" text);
    (* --dump-ir typos get the same treatment *)
    let code =
      Sys.command
        (Printf.sprintf "%s explain --dump-ir copyelim %s > /dev/null 2> %s"
           (Filename.quote mmc_exe) (Filename.quote prog) (Filename.quote err))
    in
    Alcotest.(check int) "--dump-ir typo exits 2" 2 code;
    let text = In_channel.with_open_text err In_channel.input_all in
    Alcotest.(check bool) "--dump-ir typo names the pass" true
      (contains "unknown --dump-ir pass \"copyelim\"" text);
    Alcotest.(check bool) "--dump-ir diagnostic is caret-free" false
      (contains "^" text)
  end

(* Every subcommand's help renders cleanly: cmdliner reports a bad doc
   markup on stderr and drops the option's doc, so [--help=plain] must
   exit 0 with nothing on stderr, and the --failpoints clause syntax
   must reach the run and exec pages. *)
let test_cli_help_renders () =
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ()
  else begin
    let dir = Filename.temp_file "mmgolden" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    let out = Filename.concat dir "out.txt" in
    let err = Filename.concat dir "err.txt" in
    List.iter
      (fun cmd ->
        let code =
          Sys.command
            (Printf.sprintf "%s %s --help=plain > %s 2> %s"
               (Filename.quote mmc_exe) cmd (Filename.quote out)
               (Filename.quote err))
        in
        Alcotest.(check int) (cmd ^ " --help exits 0") 0 code;
        Alcotest.(check string)
          (cmd ^ " --help writes nothing to stderr")
          ""
          (In_channel.with_open_text err In_channel.input_all);
        if List.mem cmd [ "run"; "exec" ] then
          Alcotest.(check bool)
            (cmd ^ " --help shows the failpoints syntax")
            true
            (contains "name@K"
               (In_channel.with_open_text out In_channel.input_all)))
      [ ""; "analyze"; "check"; "emit"; "run"; "exec"; "profile"; "explain" ]
  end

(* A source file that cannot be read is a plain usage error naming it in
   every subcommand that reads one, never an uncaught Sys_error. *)
let test_cli_missing_source () =
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ()
  else begin
    let dir = Filename.temp_file "mmgolden" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    let missing = Filename.concat dir "missing.mc" in
    let err = Filename.concat dir "err.txt" in
    List.iter
      (fun cmd ->
        let code =
          Sys.command
            (Printf.sprintf "%s %s %s > /dev/null 2> %s"
               (Filename.quote mmc_exe) cmd (Filename.quote missing)
               (Filename.quote err))
        in
        let text = In_channel.with_open_text err In_channel.input_all in
        Alcotest.(check int) (cmd ^ " exits 1") 1 code;
        Alcotest.(check bool)
          (cmd ^ " names the file")
          true
          (contains ("cannot read " ^ missing) text);
        Alcotest.(check bool) (cmd ^ " reports no internal error") false
          (contains "internal error" text))
      [ "check"; "emit"; "run"; "exec"; "profile"; "explain" ]
  end

(* A thread count below one is a usage error in every subcommand that
   runs a program — exit 2 before anything runs — not a silent
   single-threaded run. *)
let test_cli_threads_at_least_one () =
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ()
  else begin
    let dir = Filename.temp_file "mmgolden" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    let prog = Filename.concat dir "prog.mc" in
    Out_channel.with_open_text prog (fun oc ->
        output_string oc "int main() { return 7; }\n");
    let out = Filename.concat dir "out.txt" in
    let err = Filename.concat dir "err.txt" in
    List.iter
      (fun cmd ->
        List.iter
          (fun n ->
            let label = Printf.sprintf "%s --threads=%s" cmd n in
            let code =
              Sys.command
                (Printf.sprintf "%s %s --threads=%s %s > %s 2> %s"
                   (Filename.quote mmc_exe) cmd n (Filename.quote prog)
                   (Filename.quote out) (Filename.quote err))
            in
            Alcotest.(check int) (label ^ " exits 2") 2 code;
            Alcotest.(check string) (label ^ " says why")
              "mmc: --threads must be >= 1\n"
              (In_channel.with_open_text err In_channel.input_all);
            Alcotest.(check string) (label ^ " runs nothing") ""
              (In_channel.with_open_text out In_channel.input_all))
          [ "0"; "-3" ])
      [ "run"; "exec"; "profile" ]
  end

(* [mmc ?env args] — exit code, stdout and stderr of one CLI run, with
   the [env] bindings added to its environment. *)
let mmc ?(env = []) args =
  let dir = Filename.temp_file "mmgolden" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let out = Filename.concat dir "out" and err = Filename.concat dir "err" in
  let code =
    Sys.command
      (Printf.sprintf "%s%s %s > %s 2> %s"
         (String.concat ""
            (List.map (fun (k, v) -> k ^ "=" ^ Filename.quote v ^ " ") env))
         (Filename.quote mmc_exe)
         (String.concat " " (List.map Filename.quote args))
         (Filename.quote out) (Filename.quote err))
  in
  (code, read out, read err)

(* A negative exec deadline is a usage error — exit 2 before anything
   runs — not a run without a deadline. *)
let test_cli_timeout_not_negative () =
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ()
  else
    let prog = Filename.concat golden_dir "fig1_with_slice_copy.mc" in
    List.iter
      (fun secs ->
        let label = "exec --timeout=" ^ secs in
        let code, out, err = mmc [ "exec"; "--timeout=" ^ secs; prog ] in
        Alcotest.(check int) (label ^ " exits 2") 2 code;
        Alcotest.(check string) (label ^ " says why")
          "mmc: --timeout must be >= 0\n" err;
        Alcotest.(check string) (label ^ " runs nothing") "" out)
      [ "-1"; "-3"; "-0.5" ]

(* A failpoint fires on its K-th hit and is armed only by --failpoints:
   a probability or a seed is a bad spec in both backends (and [mmc exec]
   rejects it before it creates its cache directory), the environment
   arms nothing, and [mmc profile] has no robustness options at all. *)
let test_cli_failpoints_one_way () =
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ()
  else
    let prog = Filename.concat golden_dir "rand00.mc" in
    let bad_spec label (code, out, err) =
      Alcotest.(check int) (label ^ " exits 2") 2 code;
      Alcotest.(check bool) (label ^ " is a bad failpoint spec") true
        (contains "mmc: bad failpoint spec" err);
      Alcotest.(check string) (label ^ " runs nothing") "" out
    in
    bad_spec "run ndarray.alloc@0.5:1"
      (mmc [ "run"; "--failpoints"; "ndarray.alloc@0.5:1"; prog ]);
    let cache = Filename.temp_file "mmgolden" "" in
    Sys.remove cache;
    bad_spec "exec native.alloc@0.5"
      (mmc
         [ "exec"; "--failpoints"; "native.alloc@0.5"; "--cache-dir"; cache;
           prog ]);
    Alcotest.(check bool) "exec creates no cache directory" false
      (Sys.file_exists cache);
    let code, out, _ =
      mmc ~env:[ ("MMC_FAILPOINTS", "ndarray.alloc@1") ] [ "run"; prog ]
    in
    Alcotest.(check int) "run under MMC_FAILPOINTS exits 0" 0 code;
    Alcotest.(check string) "run under MMC_FAILPOINTS prints its result"
      ("result: " ^ read (Filename.concat golden_dir "rand00.out") ^ "\n")
      out;
    let code, out, err = mmc [ "profile"; "--timeout"; "1"; prog ] in
    Alcotest.(check int) "profile --timeout exits 124" 124 code;
    Alcotest.(check bool) "profile --timeout is an unknown option" true
      (contains "unknown option '--timeout'" err);
    Alcotest.(check string) "profile --timeout runs nothing" "" out

(* Passes are chosen only by --passes, -O0 and -O1, and `mmc explain` is
   the only report of what they decided: the per-command toggles and
   --remarks are unknown options, rejected before anything runs. *)
let test_cli_toggles_gone () =
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ()
  else
    let prog = Filename.concat golden_dir "fig1_with_slice_copy.mc" in
    List.iter
      (fun (cmd, flag) ->
        let label = cmd ^ " " ^ flag in
        let code, out, err = mmc [ cmd; flag; prog ] in
        Alcotest.(check int) (label ^ " exits 124") 124 code;
        Alcotest.(check bool) (label ^ " is an unknown option") true
          (contains ("unknown option '" ^ flag ^ "'") err);
        Alcotest.(check string) (label ^ " runs nothing") "" out)
      [
        ("check", "--auto-par");
        ("emit", "--no-fuse");
        ("emit", "--auto-par");
        ("exec", "--no-fuse");
        ("exec", "--no-copy-elim");
        ("explain", "--seq");
        ("explain", "--no-fuse");
        ("explain", "--no-copy-elim");
        ("check", "--remarks");
        ("emit", "--remarks");
        ("run", "--remarks");
        ("exec", "--remarks");
        ("profile", "--remarks");
      ]

(* Checked code is the only code mmc emits: exec has no --guards. *)
let test_cli_guards_gone () =
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ()
  else
    let prog = Filename.concat golden_dir "fig1_with_slice_copy.mc" in
    let code, out, err = mmc [ "exec"; "--guards"; prog ] in
    Alcotest.(check int) "exec --guards exits 124" 124 code;
    Alcotest.(check bool) "exec --guards is an unknown option" true
      (contains "unknown option '--guards'" err);
    Alcotest.(check string) "exec --guards runs nothing" "" out

(* The spellings that replace the removed toggles emit, on every golden
   program, the C the toggles' configs emit: fusion off is
   [--passes copy-elim,transform], auto-par on is [-O1], and both are
   [--passes copy-elim,auto-par,transform]. *)
let test_passes_spellings () =
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ()
  else
    let cfg = Driver.default_config all4 in
    let toggled ~fuse ~auto_par =
      Driver.Pipeline.enable
        (Driver.Pipeline.enable cfg "fuse" fuse)
        "auto-par" auto_par
    in
    List.iter
      (fun stem ->
        let file = Filename.concat golden_dir (stem ^ ".mc") in
        let src = read file in
        List.iter
          (fun (spelling, config) ->
            let expected =
              match Driver.compile_to_c ~config all4 src with
              | Driver.Ok_ text -> text
              | Driver.Failed ds ->
                  Alcotest.failf "%s: emit failed: %s" stem
                    (Driver.diags_to_string ds)
            in
            let code, out, _ = mmc ([ "emit" ] @ spelling @ [ file ]) in
            let label = stem ^ ": emit " ^ String.concat " " spelling in
            Alcotest.(check int) (label ^ " exits 0") 0 code;
            Alcotest.(check string) (label ^ " emits the toggle's C") expected
              out)
          [
            ( [ "--passes"; "copy-elim,transform" ],
              toggled ~fuse:false ~auto_par:false );
            ([ "-O1" ], toggled ~fuse:true ~auto_par:true);
            ( [ "--passes"; "copy-elim,auto-par,transform" ],
              toggled ~fuse:false ~auto_par:true );
          ])
      stems

(* --- diff-size cap --------------------------------------------------------- *)

let test_ir_diff_cap_falls_back_to_full_dumps () =
  let line i = Printf.sprintf "line %d" i in
  let big n tag =
    String.concat "\n" (List.init n (fun i -> if i = 0 then tag else line i))
  in
  let over = Cir.Snapshot.max_diff_lines + 1 in
  let sink = Cir.Snapshot.create ~passes:[ "lower"; "fuse" ] ~diff:true () in
  Cir.Snapshot.record sink ~pass:"lower" ~label:"program" (big over "a");
  Cir.Snapshot.record sink ~pass:"fuse" ~label:"program" (big over "b");
  let text = Cir.Snapshot.to_string sink in
  Alcotest.(check bool) "visible skip note" true
    (contains
       (Printf.sprintf
          "(diff skipped: snapshot exceeds %d lines; showing both versions \
           in full)"
          Cir.Snapshot.max_diff_lines)
       text);
  Alcotest.(check bool) "before version dumped" true
    (contains "<<< lower" text);
  Alcotest.(check bool) "after version dumped" true (contains ">>> fuse" text);
  (* under the cap the same pair produces a real unified diff *)
  let small = Cir.Snapshot.create ~passes:[ "lower"; "fuse" ] ~diff:true () in
  Cir.Snapshot.record small ~pass:"lower" ~label:"program" (big 10 "a");
  Cir.Snapshot.record small ~pass:"fuse" ~label:"program" (big 10 "b");
  let text = Cir.Snapshot.to_string small in
  Alcotest.(check bool) "small diff has -/+ hunks" true
    (contains "-a" text && contains "+b" text);
  Alcotest.(check bool) "small diff is not a full dump" false
    (contains "diff skipped" text)

let suite =
  [
    Alcotest.test_case "emitted C bit-identical to oracle (corpus)" `Quick
      test_emitted_c_matches_oracle;
    Alcotest.test_case "interpreter results bit-identical to oracle" `Quick
      test_run_results_match_oracle;
    Alcotest.test_case "default explain report bit-identical to oracle" `Quick
      test_explain_report_matches_oracle;
    Alcotest.test_case "explain --dump-ir=all lowers exactly once" `Quick
      test_explain_lowers_exactly_once;
    Alcotest.test_case "pass.<name> timing spans recorded" `Quick
      test_pass_timing_spans;
    Alcotest.test_case "--passes transform,auto-par applies skipped script"
      `Quick test_reorder_applies_skipped_script;
    Alcotest.test_case "reordered pipeline: native = interp" `Quick
      test_reorder_native_matches_interp;
    Alcotest.test_case "pipeline string separates cache keys" `Quick
      test_cache_key_separates_pipelines;
    Alcotest.test_case "of_spec rejects unknown passes" `Quick
      test_of_spec_rejects_unknown;
    Alcotest.test_case "cli: unknown --passes diagnostic is caret-free" `Quick
      test_cli_unknown_pass_diagnostic;
    Alcotest.test_case "cli: every --help renders without errors" `Quick
      test_cli_help_renders;
    Alcotest.test_case "cli: a missing source file is a plain error" `Quick
      test_cli_missing_source;
    Alcotest.test_case "cli: --threads below 1 is a usage error" `Quick
      test_cli_threads_at_least_one;
    Alcotest.test_case "cli: a negative exec --timeout is a usage error" `Quick
      test_cli_timeout_not_negative;
    Alcotest.test_case "--ir-diff caps the LCS and dumps both versions" `Quick
      test_ir_diff_cap_falls_back_to_full_dumps;
    Alcotest.test_case "permuted extension order emits oracle C" `Quick
      test_permuted_selection_matches_oracle;
    Alcotest.test_case "cli: pass toggles and --remarks are gone" `Quick
      test_cli_toggles_gone;
    Alcotest.test_case "--passes spellings reproduce the toggles' configs"
      `Quick test_passes_spellings;
    Alcotest.test_case "cli: a failpoint is armed one way, by hit count"
      `Quick test_cli_failpoints_one_way;
    Alcotest.test_case "a disabled pass's position does not matter" `Quick
      test_disabled_pass_position;
    Alcotest.test_case "cli: exec --guards is an unknown option" `Quick
      test_cli_guards_gone;
  ]
