(* mmc — the extensible CMINUS translator, as a command-line tool.

   The workflow of §II: select extensions (like libraries), the tool runs
   the composability analyses, composes a custom translator, and then
   checks / translates / runs extended-C programs.

     mmc analyze -x matrix -x transform
     mmc check   program.xc -x matrix
     mmc emit    program.xc -x matrix -x transform > program.c
     mmc run     program.xc -x matrix --threads 4 --data-dir ./data
     mmc explain program.xc --passes copy-elim,transform

   Passes are chosen in one place: -O0, -O1 and --passes, on top of each
   command's base config (auto-parallelization is on for explain, and for
   run/exec/profile iff --threads > 1).  `mmc explain` is the one report
   of what the passes decided.
*)

open Cmdliner

(* Fatal CLI errors raise (rather than [exit], which would not unwind)
   so [with_telemetry]'s finalizer still reports --stats/--trace; the
   exception is turned back into the exit code inside the term body. *)
exception Fatal of int

let read_source file =
  try
    match file with
    | "-" -> In_channel.input_all In_channel.stdin
    | path -> In_channel.with_open_text path In_channel.input_all
  with Sys_error m ->
    (* Sys_error reads "FILE: reason"; name FILE once *)
    let prefix = file ^ ": " in
    let reason =
      if String.starts_with ~prefix m then
        String.sub m (String.length prefix) (String.length m - String.length prefix)
      else m
    in
    Fmt.epr "mmc: cannot read %s: %s@." file reason;
    raise (Fatal 1)

let resolve_exts names =
  List.map
    (fun n ->
      match Driver.extension_by_name n with
      | Some x -> x
      | None ->
          Fmt.epr "unknown extension %S (available: %s)@." n
            (String.concat ", "
               (List.map (fun x -> x.Driver.x_name) Driver.all_extensions));
          raise (Fatal 2))
    names

let composition_failed msg =
  Fmt.epr "composition failed:@.%s@." msg;
  raise (Fatal 2)

let compose_or_die exts =
  try Driver.compose exts
  with Driver.Compose_failed msg -> composition_failed msg

(* --- common options ---------------------------------------------------------- *)

(* Both the help text and the default selection are derived from
   [Driver.all_extensions], so a newly shipped extension (e.g. cilk) can
   never be silently missing from either. *)
let all_ext_names =
  List.map (fun x -> x.Driver.x_name) Driver.all_extensions

let exts_arg =
  let doc =
    Fmt.str
      "Language extension to load (repeatable). Available: %s. Tuples are \
       always present: they fail isComposable and ship with the host \
       (§VI-A)."
      (String.concat ", " all_ext_names)
  in
  Arg.(value & opt_all string all_ext_names
       & info [ "x"; "extension" ] ~docv:"EXT" ~doc)

let src_arg =
  let doc = "Extended-C source file ('-' for stdin)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

(* --- pass pipeline (--passes / -O0 / -O1) ------------------------------------- *)

let passes_arg =
  Arg.(value & opt (some string) None
       & info [ "passes" ] ~docv:"PASS[,PASS...]"
           ~doc:"Run only the named CIR passes, in the given order. The \
                 remaining registered passes still run disabled — their \
                 sites are spliced away and their decisions reported as \
                 skipped. Known passes, in default order: fuse, \
                 copy-elim, auto-par, transform. Ordering matters: \
                 $(b,--passes transform,auto-par) applies transform \
                 scripts before parallelization, letting scripts bind \
                 loop nests the default order would hand to auto-par \
                 first.")

let o0_arg =
  Arg.(value & flag
       & info [ "O0" ]
           ~doc:"Disable every optimization pass: the baseline lowering, \
                 library-style copies included.")

let o1_arg =
  Arg.(value & flag
       & info [ "O1" ]
           ~doc:"Enable every optimization pass, auto-parallelization \
                 included.")

let pipeline_term =
  Term.(const (fun p o0 o1 -> (p, o0, o1)) $ passes_arg $ o0_arg $ o1_arg)

(* Build this invocation's pipeline config: the command's base config,
   then -O0/-O1, then --passes — which overrides both selection and
   order.  These three flags are the only way to choose passes.  An
   unknown --passes name is a plain usage error listing the known passes
   (no caret: there is no source position to point at).  No composition
   is needed. *)
let resolve_config (passes_spec, o0, o1) base =
  if o0 && o1 then begin
    Fmt.epr "mmc: -O0 and -O1 are mutually exclusive@.";
    raise (Fatal 2)
  end;
  let cfg =
    if o0 then Driver.Pipeline.set_all base false
    else if o1 then Driver.Pipeline.set_all base true
    else base
  in
  match passes_spec with
  | None -> cfg
  | Some s -> (
      let names =
        String.split_on_char ',' s |> List.map String.trim
        |> List.filter (fun p -> p <> "")
      in
      match Driver.Pipeline.of_spec cfg names with
      | Ok cfg -> cfg
      | Error bad ->
          Fmt.epr "mmc: unknown --passes pass %S (available: %s)@." bad
            (String.concat ", " (Driver.Pipeline.known cfg));
          raise (Fatal 2))

(* --- telemetry (--stats / --trace) ------------------------------------------- *)

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print a per-phase timing and pipeline-counter summary to \
                 standard error when the command finishes.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON file (load it in \
                 chrome://tracing or https://ui.perfetto.dev) covering \
                 compiler phases, runtime-pool activity and pipeline \
                 counters.")

let telemetry_term = Term.(const (fun s t -> (s, t)) $ stats_arg $ trace_arg)

(* Enable telemetry iff requested, run the command body, then emit the
   requested reports.  [Fun.protect] so a failing command still reports. *)
let with_telemetry (stats, trace) k =
  if stats || Option.is_some trace then begin
    Support.Telemetry.reset ();
    Support.Telemetry.set_enabled true
  end;
  Fun.protect
    ~finally:(fun () ->
      if stats then Fmt.epr "%a@." Support.Telemetry.pp_summary ();
      (try Option.iter Support.Telemetry.write_chrome_trace trace
       with Sys_error m -> Fmt.epr "mmc: cannot write trace: %s@." m);
      Support.Telemetry.set_enabled false)
    (fun () -> try k () with Fatal code -> code)

(* --- analyze ------------------------------------------------------------------- *)

let analyze_cmd =
  let run exts_names tele =
    with_telemetry tele @@ fun () ->
    let exts = resolve_exts exts_names in
    let reports =
      List.map
        (fun x ->
          Grammar.Determinism.check Driver.effective_host x.Driver.grammar)
        exts
    in
    List.iter (fun r -> Fmt.pr "%a@." Grammar.Determinism.pp_report r) reports;
    List.iter
      (fun x ->
        Fmt.pr "%a@."
          Ag.Wellformed.pp_report
          (Ag.Wellformed.check ~host:Driver.host_ag_spec x.Driver.ag_spec))
      exts;
    let c = compose_or_die exts in
    Fmt.pr "composed translator: %d LALR(1) states, %d terminals@."
      c.Driver.table.Grammar.Lalr.n_states
      c.Driver.table.Grammar.Lalr.g.Grammar.Analysis.n_terms;
    if List.for_all (fun r -> r.Grammar.Determinism.passes) reports then 0
    else 1
  in
  let doc = "Run the modular composability analyses (§VI) and compose." in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ exts_arg $ telemetry_term)

(* --- check --------------------------------------------------------------------- *)

let check_cmd =
  let run exts_names pipeline tele file =
    with_telemetry tele @@ fun () ->
    let exts = resolve_exts exts_names in
    let c = compose_or_die exts in
    let config = resolve_config pipeline (Driver.selection_config exts) in
    let src = read_source file in
    let warn d = Fmt.epr "%s@." (Driver.diags_to_string ~src [ d ]) in
    match Driver.frontend c src with
    | Driver.Failed ds ->
        Fmt.epr "%s@." (Driver.diags_to_string ~src ds);
        1
    | Driver.Ok_ ast -> (
        (* Also lower: non-fatal lowering diagnostics (transform scripts
           skipped, …) must reach stderr on check too, not only on
           emit/run — checking a program should surface everything short
           of executing it. *)
        match Driver.lower ~config ~warn c ast with
        | Driver.Ok_ _ ->
            Fmt.pr "%s: OK@." file;
            0
        | Driver.Failed ds ->
            Fmt.epr "%s@." (Driver.diags_to_string ~src ds);
            1)
  in
  let doc =
    "Parse, typecheck and lower an extended-C program. With $(b,-O1) it \
     lowers under auto-parallelization, so lowering warnings (e.g. a \
     transform script skipped because a loop became parallel) match what \
     $(b,run --threads) N reports."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ exts_arg $ pipeline_term $ telemetry_term $ src_arg)

(* --- emit ---------------------------------------------------------------------- *)

let emit_cmd =
  let line_directives =
    Arg.(value & flag & info [ "line-directives" ]
         ~doc:"Emit #line directives pointing C tools (debuggers, \
               profilers) back at the original extended-C source.")
  in
  let instrument =
    Arg.(value & flag & info [ "instrument" ]
         ~doc:"Wrap provenance-carrying loops in mm_prof enter/exit \
               calls over a generated span table, so the compiled \
               program can attribute native wall time to source spans \
               (what $(b,profile --native) compiles); its harness prints \
               the profile as a last $(b,__mm_profile) JSON line on \
               stdout. Requires mm_prof.h/mm_prof.c from runtime/c/ to \
               build standalone.")
  in
  let run exts_names pipeline line_directives instrument tele file =
    with_telemetry tele @@ fun () ->
    let exts = resolve_exts exts_names in
    let c = compose_or_die exts in
    let config = resolve_config pipeline (Driver.selection_config exts) in
    let src = read_source file in
    let line_file =
      if line_directives then
        Some (if file = "-" then "<stdin>" else file)
      else None
    in
    let warn d = Fmt.epr "%s@." (Driver.diags_to_string ~src [ d ]) in
    match
      Driver.compile_to_c ~config ~warn ?line_file ~instrument c src
    with
    | Driver.Ok_ text ->
        print_string text;
        0
    | Driver.Failed ds ->
        Fmt.epr "%s@." (Driver.diags_to_string ~src ds);
        1
  in
  let doc = "Translate extended C down to plain parallel C (§II)." in
  Cmd.v (Cmd.info "emit" ~doc)
    Term.(
      const run $ exts_arg $ pipeline_term $ line_directives $ instrument
      $ telemetry_term $ src_arg)

(* --- run / profile (shared runtime options) ------------------------------------ *)

(* A count below one is a usage error (exit 2), not a silent
   single-threaded run.  The term is evaluated before any command body
   starts, so exiting here leaves nothing to unwind. *)
let threads_arg =
  let at_least_one n =
    if n < 1 then begin
      Fmt.epr "mmc: --threads must be >= 1@.";
      exit 2
    end;
    n
  in
  Term.(
    const at_least_one
    $ Arg.(value & opt int 1
             & info [ "t"; "threads" ] ~docv:"N"
                 ~doc:"Worker-pool threads (the paper's command-line thread \
                       count, §III-C), at least 1. Implies \
                       auto-parallelization when > 1."))

(* The one config [run], [exec] and [profile] compile under: auto-par on
   iff more than one thread runs the program, then -O0/-O1/--passes. *)
let run_config pipeline exts ~threads =
  resolve_config pipeline
    (Driver.Pipeline.enable (Driver.selection_config exts) "auto-par"
       (threads > 1))

let data_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"Directory where readMatrix/writeMatrix resolve paths \
                 (default: a temporary directory, removed when the \
                 command ends).")

(* --- robustness options (run) -------------------------------------------------- *)

let failpoints_arg =
  Arg.(value & opt_all string []
       & info [ "failpoints" ] ~docv:"SPEC"
           ~doc:"Arm fault-injection points: comma-separated clauses, \
                 repeatable. $(b,name@K) fires on exactly the K-th hit. \
                 Known points: ndarray.alloc, pool.dispatch, \
                 pool.worker_body, io.read_matrix.")

let max_steps_arg =
  Arg.(value & opt (some int) None
       & info [ "max-steps" ] ~docv:"N"
           ~doc:"Abort the program after N loop iterations (checked at \
                 every iteration).")

let max_bytes_arg =
  Arg.(value & opt (some int) None
       & info [ "max-bytes" ] ~docv:"N"
           ~doc:"Abort when live matrix payload in the run's RC ledger \
                 exceeds N bytes (checked at loop and chunk boundaries).")

let timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "timeout" ] ~docv:"SECS"
           ~doc:"Abort after SECS seconds of wall clock (cooperative: \
                 enforced at loop and chunk boundaries).")

let robustness_term =
  Term.(
    const (fun fp ms mb t -> (fp, ms, mb, t))
    $ failpoints_arg $ max_steps_arg $ max_bytes_arg $ timeout_arg)

(* Arm failpoints and install resource limits around the command body;
   both are process-global, so the finalizer always clears them. *)
let with_robustness (specs, max_steps, max_bytes, timeout_s) k =
  Support.Failpoint.reset ();
  (try Support.Failpoint.arm_spec (String.concat "," specs)
   with Support.Failpoint.Bad_spec m ->
     Fmt.epr "mmc: bad failpoint spec: %s@." m;
     raise (Fatal 2));
  Runtime.Limits.configure ?max_steps ?max_bytes ?timeout_s ();
  Fun.protect
    ~finally:(fun () ->
      Runtime.Limits.clear ();
      Support.Failpoint.reset ())
    k

let run_cmd =
  let run exts_names threads data_dir pipeline robust tele file =
    with_telemetry tele @@ fun () ->
    let exts = resolve_exts exts_names in
    let c = compose_or_die exts in
    let config = run_config pipeline exts ~threads in
    let src = read_source file in
    let warn d = Fmt.epr "%s@." (Driver.diags_to_string ~src [ d ]) in
    let exec pool =
      with_robustness robust @@ fun () ->
      match Driver.run ?dir:data_dir ?pool ~config ~warn c src [] with
      | Driver.Ok_ v ->
          Fmt.pr "result: %a@." Interp.Eval.pp_value v;
          let live = Runtime.Rc.live_count () in
          if live > 0 then
            Fmt.epr "warning: %d allocation(s) still live at exit@." live;
          0
      | Driver.Failed ds ->
          Fmt.epr "%s@." (Driver.diags_to_string ~src ds);
          1
    in
    if threads > 1 then
      Runtime.Pool.with_pool threads (fun pool -> exec (Some pool))
    else exec None
  in
  let doc = "Translate and execute on the parallel matrix runtime." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ exts_arg $ threads_arg $ data_dir_arg $ pipeline_term
      $ robustness_term $ telemetry_term $ src_arg)

(* --- native toolchain options (exec / profile --native) ------------------------ *)

let cc_arg =
  Arg.(value & opt (some string) None
       & info [ "cc" ] ~docv:"CC"
           ~doc:"C compiler to drive (default: \\$(b,MMC_CC), then cc).")

let cflags_arg =
  Arg.(value & opt_all string []
       & info [ "cflags" ] ~docv:"FLAG"
           ~doc:"Extra flag for the C compiler, after the defaults \
                 (-O2 -Wall, plus -fopenmp when available). Repeatable.")

let keep_c_arg =
  Arg.(value & opt (some string) None
       & info [ "keep-c" ] ~docv:"FILE"
           ~doc:"Also write the emitted self-contained C program to FILE, \
                 with its runtime sources beside it, so it can be \
                 recompiled standalone.")

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Always translate and recompile, bypassing the exec index \
                 and the binary cache.")

let cache_dir_arg =
  Arg.(value & opt string Native.Cache.default_dir
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Directory of the binary cache and of the exec index in \
                 front of it, which takes an unchanged program straight \
                 from its source to its cached binary, replaying the \
                 warnings of its first translation (default _mmc_cache; \
                 created with its parents if missing).")

let native_opts_term =
  Term.(
    const (fun cc cflags keep_c no_cache cache_dir ->
        (cc, cflags, keep_c, no_cache, cache_dir))
    $ cc_arg $ cflags_arg $ keep_c_arg $ no_cache_arg $ cache_dir_arg)

(* --- exec (native) ------------------------------------------------------------- *)

let exec_cmd =
  let line_directives =
    Arg.(value & flag & info [ "line-directives" ]
         ~doc:"Emit #line directives in the generated C (visible through \
               --keep-c and in the cache directory), pointing C tools \
               back at the original extended-C source.")
  in
  let sanitize =
    Arg.(value
         & opt (some (enum [ ("address", "address"); ("undefined", "undefined") ]))
             None
         & info [ "sanitize" ] ~docv:"MODE"
             ~doc:"Compile under -fsanitize=MODE (address or undefined). \
                   A failed compile probes the toolchain: an unsupported \
                   sanitizer reports a visible diagnostic instead of a \
                   compile error. Sanitized binaries occupy their own \
                   cache slot.")
  in
  let native_failpoints =
    Arg.(value & opt_all string []
         & info [ "failpoints" ] ~docv:"SPEC"
             ~doc:"Arm fault-injection points inside the native binary \
                   (via \\$(b,MM_FAILPOINTS) in its environment): \
                   comma-separated clauses, repeatable. $(b,name@K) \
                   fires on exactly the K-th hit. Known points: \
                   native.alloc, native.io.read_matrix.")
  in
  (* A negative deadline is a usage error (exit 2), like --threads 0. *)
  let native_timeout =
    let at_least_zero = function
      | Some t when not (t >= 0.) ->
          Fmt.epr "mmc: --timeout must be >= 0@.";
          exit 2
      | t -> t
    in
    Term.(
      const at_least_zero
      $ Arg.(value & opt (some float) None
             & info [ "timeout" ] ~docv:"SECS"
                 ~doc:"Kill the native binary after SECS (at least 0) \
                       seconds of wall clock, by SIGALRM from an interval \
                       timer armed in the binary's own process."))
  in
  let native_max_bytes =
    Arg.(value & opt (some int) None
         & info [ "max-bytes" ] ~docv:"N"
             ~doc:"Cap the native binary's address space at N bytes \
                   (plus fixed runtime headroom) via setrlimit, so a \
                   runaway allocation fails inside the child instead of \
                   invoking the system OOM killer.")
  in
  let run exts_names threads data_dir (cc, cflags, keep_c, no_cache, cache_dir)
      pipeline line_directives sanitize failpoints timeout_s max_bytes
      tele file =
    with_telemetry tele @@ fun () ->
    (* Driver.exec composes only when its index misses *)
    let exts = resolve_exts exts_names in
    let config = run_config pipeline exts ~threads in
    let src = read_source file in
    let line_file =
      if line_directives then
        Some (if file = "-" then "<stdin>" else file)
      else None
    in
    (* Validate the failpoint grammar up front with the interpreter-side
       parser (same clause syntax), so a typo is a usage error here, not
       an mm_fatal inside the child.  The names are the C runtime's,
       which rejects any it does not know. *)
    let failpoints =
      match failpoints with
      | [] -> None
      | specs ->
          let joined = String.concat "," specs in
          (try ignore (Support.Failpoint.parse_spec joined)
           with Support.Failpoint.Bad_spec m ->
             Fmt.epr "mmc: bad failpoint spec: %s@." m;
             raise (Fatal 2));
          Some joined
    in
    let warn d = Fmt.epr "%s@." (Driver.diags_to_string ~src [ d ]) in
    match
      Driver.exec ?dir:data_dir ~config ~warn ?cc ~cflags ?keep_c ?line_file
        ?sanitize ?failpoints ?timeout_s ?max_bytes ~cache:(not no_cache)
        ~cache_dir ~threads (Driver.Selection exts) src
    with
    | exception Driver.Compose_failed msg -> composition_failed msg
    | Driver.Ok_ o ->
        Fmt.pr "result: %a@." Native.Exec.pp_value o.Native.Exec.value;
        if o.Native.Exec.live > 0 then
          Fmt.epr "warning: %d allocation(s) still live at exit@."
            o.Native.Exec.live;
        0
    | Driver.Failed ds ->
        Fmt.epr "%s@." (Driver.diags_to_string ~src ds);
        1
  in
  let doc =
    "Translate to plain parallel C, compile with the system C compiler \
     (cached by content hash; an unchanged program goes straight from its \
     source to its cached binary), execute the native binary supervised \
     and print its result — bit-identical to $(b,run)."
  in
  Cmd.v (Cmd.info "exec" ~doc)
    Term.(
      const run $ exts_arg $ threads_arg $ data_dir_arg $ native_opts_term
      $ pipeline_term $ line_directives $ sanitize
      $ native_failpoints $ native_timeout $ native_max_bytes
      $ telemetry_term $ src_arg)

(* --- profile ------------------------------------------------------------------- *)

let profile_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the profile as machine-readable JSON instead of \
                   the hot-loop table.")
  in
  let folded =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"Write folded stacks (one 'span;span self_ns' line per \
                   source path) for flamegraph.pl / speedscope.")
  in
  let top =
    Arg.(value & opt int 15
         & info [ "top" ] ~docv:"N"
             ~doc:"Rows to show in the hot-loop table (default 15).")
  in
  let native =
    Arg.(value & flag
         & info [ "native" ]
             ~doc:"Profile the native binary instead of the interpreter: \
                   compile with --instrument (through the binary cache), \
                   run it, and render the binary's own span-attributed \
                   profile through the same table/--json/--folded \
                   outputs.")
  in
  let diff_native =
    Arg.(value & flag
         & info [ "diff-native" ]
             ~doc:"Profile both the interpreter and the instrumented \
                   native binary, then join the two profiles span by \
                   span: per-loop native speedup, flagging spans whose \
                   gain lags the program-level ratio.")
  in
  let run exts_names threads data_dir pipeline json folded top native
      diff_native (cc, cflags, keep_c, no_cache, cache_dir) tele file =
    with_telemetry tele @@ fun () ->
    let exts = resolve_exts exts_names in
    (* Both legs profile the pipeline run/exec would compile, so
       --diff-native joins two runs of the same program. *)
    let config = run_config pipeline exts ~threads in
    let src = read_source file in
    let warn d = Fmt.epr "%s@." (Driver.diags_to_string ~src [ d ]) in
    let fail ds =
      Fmt.epr "%s@." (Driver.diags_to_string ~src ds);
      1
    in
    let dump_folded report =
      Option.iter
        (fun path ->
          try
            Out_channel.with_open_text path (fun oc ->
                List.iter
                  (fun l -> Out_channel.output_string oc (l ^ "\n"))
                  (Driver.Profile_report.folded_lines report))
          with Sys_error m -> Fmt.epr "mmc: cannot write folded: %s@." m)
        folded
    in
    let profile_native () =
      try
        Driver.profile_native ?dir:data_dir ~config ~warn ?cc
          ~cflags ?keep_c ~cache:(not no_cache) ~cache_dir ~threads
          (Driver.Selection exts) src
      with Driver.Compose_failed msg -> composition_failed msg
    in
    let interp_profile k =
      let c = compose_or_die exts in
      let body pool =
        let outcome, report =
          Driver.profile ?dir:data_dir ?pool ~config ~warn c src []
        in
        k outcome report
      in
      if threads > 1 then
        Runtime.Pool.with_pool threads (fun pool -> body (Some pool))
      else body None
    in
    if diff_native then
      interp_profile @@ fun outcome interp_report ->
      match outcome with
      | Driver.Failed ds -> fail ds
      | Driver.Ok_ _ -> (
          match profile_native () with
          | Driver.Failed ds -> fail ds
          | Driver.Ok_ (_, native_report) ->
              let d =
                Driver.Profile_report.diff_reports ~src ~interp:interp_report
                  ~native:native_report
              in
              if json then
                print_string (Driver.Profile_report.diff_to_json d ^ "\n")
              else print_string (Driver.Profile_report.diff_to_string d);
              0)
    else if native then
      match profile_native () with
      | Driver.Failed ds -> fail ds
      | Driver.Ok_ (o, report) ->
          if json then
            print_string (Driver.Profile_report.to_json ~src report ^ "\n")
          else begin
            Fmt.pr "result: %a@." Native.Exec.pp_value o.Native.Exec.value;
            print_string (Driver.Profile_report.to_string ~top ~src report)
          end;
          dump_folded report;
          0
    else
      interp_profile @@ fun outcome report ->
      match outcome with
      | Driver.Ok_ v ->
          if json then
            print_string (Driver.Profile_report.to_json ~src report ^ "\n")
          else begin
            Fmt.pr "result: %a@." Interp.Eval.pp_value v;
            print_string (Driver.Profile_report.to_string ~top ~src report)
          end;
          dump_folded report;
          0
      | Driver.Failed ds -> fail ds
  in
  let doc =
    "Run a program under the source-attributed profiler: a hot-loop table \
     keyed by source span, with iteration counts, per-span allocation \
     bytes and parallel-vs-sequential time. With --native the same report \
     comes from an instrumented native binary; with --diff-native the two \
     are joined span by span."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ exts_arg $ threads_arg $ data_dir_arg
      $ pipeline_term $ json $ folded $ top $ native
      $ diff_native $ native_opts_term $ telemetry_term $ src_arg)

(* --- explain ------------------------------------------------------------------- *)

let explain_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the report as machine-readable JSON (remarks plus \
                   per-pass counts) instead of the remark table.")
  in
  let only =
    Arg.(value & opt_all string []
         & info [ "only" ] ~docv:"FILTER"
             ~doc:"Filter remarks: $(b,pass=NAME) (bounds, fuse, \
                   copy-elim, auto-par, rc, transform) or \
                   $(b,kind=applied|missed|skipped). Repeatable; filters \
                   combine.")
  in
  let dump_ir =
    Arg.(value & opt (some string) None
         & info [ "dump-ir" ] ~docv:"PASS[,PASS...]"
             ~doc:"Pretty-print the IR after each named pass. Passes, in \
                   pipeline order: lower (no optimizations), fuse, \
                   copy-elim, auto-par, transform (one snapshot per \
                   applied script clause); $(b,all) selects every pass.")
  in
  let ir_diff =
    Arg.(value & flag
         & info [ "ir-diff" ]
             ~doc:"With --dump-ir: render a unified diff between \
                   consecutive snapshots instead of each one in full, so \
                   each pass's (or transform clause's) effect on the loop \
                   nest is visible directly.")
  in
  let run exts_names json only dump_ir ir_diff pipeline tele file =
    with_telemetry tele @@ fun () ->
    let exts = resolve_exts exts_names in
    let c = compose_or_die exts in
    let config = resolve_config pipeline (Driver.explain_config exts) in
    let src = read_source file in
    (* --only pass=…/kind=… *)
    let pass_f = ref None and kind_f = ref None in
    List.iter
      (fun f ->
        let bad () =
          Fmt.epr
            "mmc: bad --only filter %S (expected pass=NAME or \
             kind=applied|missed|skipped)@."
            f;
          raise (Fatal 2)
        in
        match String.index_opt f '=' with
        | None -> bad ()
        | Some i -> (
            let k = String.sub f 0 i in
            let v = String.sub f (i + 1) (String.length f - i - 1) in
            match k with
            | "pass" -> pass_f := Some v
            | "kind" -> (
                match v with
                | "applied" -> kind_f := Some Support.Remark.Applied
                | "missed" -> kind_f := Some Support.Remark.Missed
                | "skipped" -> kind_f := Some Support.Remark.Skipped
                | _ -> bad ())
            | _ -> bad ()))
      only;
    let dump_passes =
      match dump_ir with
      | None -> []
      | Some s ->
          let ps =
            String.split_on_char ',' s |> List.map String.trim
            |> List.filter (fun p -> p <> "")
          in
          List.iter
            (fun p ->
              if not (List.mem p ("all" :: Cir.Snapshot.known_passes)) then begin
                Fmt.epr "mmc: unknown --dump-ir pass %S (available: %s, all)@."
                  p
                  (String.concat ", " Cir.Snapshot.known_passes);
                raise (Fatal 2)
              end)
            ps;
          ps
    in
    let warn d = Fmt.epr "%s@." (Driver.diags_to_string ~src [ d ]) in
    match Driver.explain ~config ~dump_passes ~ir_diff ~warn c src with
    | Driver.Failed ds, _ ->
        Fmt.epr "%s@." (Driver.diags_to_string ~src ds);
        1
    | Driver.Ok_ _, report ->
        let report =
          Driver.Explain_report.filter ?pass:!pass_f ?kind:!kind_f report
        in
        if json then
          print_string (Driver.Explain_report.to_json report ^ "\n")
        else print_string (Driver.Explain_report.to_string ~src report);
        0
  in
  let doc =
    "Explain the pipeline's optimization decisions for a program: a remark \
     table (with-loop fusion, copy elimination, auto-parallelization, \
     reference counting, transform clauses) grouped by pass with source \
     excerpts, optional pass-by-pass IR dumps (--dump-ir) and snapshot \
     diffs (--ir-diff). Auto-parallelization is on, as under \
     $(b,run --threads) N; choose other passes with $(b,--passes), \
     $(b,-O0) or $(b,-O1)."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const run $ exts_arg $ json $ only $ dump_ir $ ir_diff $ pipeline_term
      $ telemetry_term $ src_arg)

(* ---------------------------------------------------------------------------------- *)

let () =
  let doc = "extensible CMINUS translator with parallel matrix extensions" in
  let info = Cmd.info "mmc" ~version:"1.0.0" ~doc in
  (* cmdliner has no multi-char short options, so accept the
     conventional -O0/-O1 spellings as aliases for --O0/--O1. *)
  let argv =
    Array.map
      (function "-O0" -> "--O0" | "-O1" -> "--O1" | a -> a)
      Sys.argv
  in
  exit
    (Cmd.eval' ~argv
       (Cmd.group info
          [
            analyze_cmd; check_cmd; emit_cmd; run_cmd; exec_cmd; profile_cmd;
            explain_cmd;
          ]))
