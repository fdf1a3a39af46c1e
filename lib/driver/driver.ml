(** The extensible-translator driver (§II): a programmer picks a set of
    language extensions, the system runs the composability analyses,
    composes the grammar and attribute specifications with the host, and
    produces a working translator for the customised language — "the
    programmer is not required to have any knowledge of the language
    composition process."

    Pipeline: compose → scan/parse (context-aware) → build AST →
    semantic analysis → baseline lowering to plain parallel C → the CIR
    pass pipeline, where every optimization is chosen → {emit C text |
    execute on the parallel runtime}. *)

module Cfg = Grammar.Cfg
module Tel = Support.Telemetry

(* Re-export: the pass-pipeline configuration is part of the driver's
   public API ([Driver.Pipeline.config] threads through every entry
   point below). *)
module Pipeline = Pipeline

type extension = {
  x_name : string;
  grammar : Cfg.t;
  check_hooks : Cminus.Check.hooks;
  lower_hooks : unit -> Cminus.Lower.hooks;
      (** made once per lowering, so hooks may keep state for that one
          lowering (the matrix extension memoises each function's facts) *)
  passes : Cir.Pass.t list;
      (** CIR passes this extension registers, in its preferred pipeline
          order; composition concatenates them in extension order *)
  ag_spec : Ag.Wellformed.spec;
  enables_rc : bool;
}

(* --- the extensions shipped with this repository ----------------------------- *)

let matrix : extension =
  {
    x_name = Ext_matrix.Matrix_ext.name;
    grammar = Ext_matrix.Matrix_ext.grammar;
    check_hooks = Ext_matrix.Matrix_ext.check_hooks;
    lower_hooks = Ext_matrix.Matrix_ext.lower_hooks;
    passes = Ext_matrix.Matrix_ext.passes;
    ag_spec = Ext_matrix.Matrix_ext.ag_spec;
    enables_rc = false;
  }

let transform : extension =
  {
    x_name = Ext_transform.Transform_ext.name;
    grammar = Ext_transform.Transform_ext.grammar;
    check_hooks = Ext_transform.Transform_ext.check_hooks;
    lower_hooks = Fun.const Ext_transform.Transform_ext.lower_hooks;
    passes = [ Ext_transform.Transform_ext.pass ];
    ag_spec = Ext_transform.Transform_ext.ag_spec;
    enables_rc = false;
  }

let refptr : extension =
  {
    x_name = Ext_refptr.Refptr_ext.name;
    grammar = Ext_refptr.Refptr_ext.grammar;
    check_hooks = Ext_refptr.Refptr_ext.check_hooks;
    lower_hooks = Fun.const Ext_refptr.Refptr_ext.lower_hooks;
    passes = [];
    ag_spec = Ext_refptr.Refptr_ext.ag_spec;
    enables_rc = Ext_refptr.Refptr_ext.enables_rc;
  }

let cilk : extension =
  {
    x_name = Ext_cilk.Cilk_ext.name;
    grammar = Ext_cilk.Cilk_ext.grammar;
    check_hooks = Ext_cilk.Cilk_ext.check_hooks;
    lower_hooks = Fun.const Ext_cilk.Cilk_ext.lower_hooks;
    passes = [];
    ag_spec = Ext_cilk.Cilk_ext.ag_spec;
    enables_rc = false;
  }

let all_extensions = [ matrix; transform; refptr; cilk ]

let extension_by_name n =
  List.find_opt (fun x -> String.equal x.x_name n) all_extensions

(* --- composition ------------------------------------------------------------------ *)

(** The effective host (CMINUS plus the host-packaged tuples fragment)
    and its attribute-grammar specification; see {!Composition}. *)
let effective_host = Composition.effective_host

let host_ag_spec = Composition.host_ag_spec

type composed = {
  selected : extension list;
  table : Grammar.Lalr.t;
  parser_ : Parser.Driver.t;
  determinism_reports : Grammar.Determinism.report list;
  ag_reports : Ag.Wellformed.report list;
  rc : bool;
}

exception Compose_failed of string

(* Snapshot slots of the selection, in the user's order: [None] when an
   extension is not one the build composed (physically the shipped
   grammar and specification) or appears twice. *)
let shipped_indices (selected : extension list) =
  List.fold_right
    (fun x acc ->
      match
        (acc, Composition.shipped_index ~grammar:x.grammar ~ag_spec:x.ag_spec)
      with
      | Some is, Some i when not (List.mem i is) -> Some (i :: is)
      | _ -> None)
    selected (Some [])

(* The baked verdict for a set of shipped extensions.  Its reports come
   in canonical order; hand them back in the selection's. *)
let snapshot_verdict (indices : int list) : Composition.verdict =
  Tel.with_span ~phase:"compose" "compose.snapshot" @@ fun () ->
  let mask = List.fold_left (fun m i -> m lor (1 lsl i)) 0 indices in
  let verdict : Composition.verdict =
    Marshal.from_string Composed_tables.subsets.(mask) 0
  in
  let canonical = List.sort compare indices in
  let in_selection_order reports =
    let by_index = List.combine canonical reports in
    List.map (fun i -> List.assoc i by_index) indices
  in
  Result.map
    (fun (t : Composition.tables) ->
      {
        t with
        determinism_reports = in_selection_order t.determinism_reports;
        ag_reports = in_selection_order t.ag_reports;
      })
    verdict

(** [compose exts] — the translator for the host plus [exts]: the
    composed scanner/parser, and the modular analyses' reports.  An
    extension failing an analysis, or a composed grammar with LALR(1)
    conflicts, raises {!Compose_failed} — the guarantee the paper's
    workflow gives the non-expert user.

    For the shipped extensions both come from the snapshot the build
    baked ([composed_tables.ml]): composition is a pure function of
    data compiled into mmc, so no process recomposes it.  Any other
    extension is composed live.  Hooks and passes run in [exts]'s
    order either way. *)
let compose (selected : extension list) : composed =
  Tel.with_span ~phase:"compose" "driver.compose" @@ fun () ->
  let verdict =
    match shipped_indices selected with
    | Some indices -> snapshot_verdict indices
    | None ->
        Composition.compose
          (List.map
             (fun x -> { Composition.grammar = x.grammar; ag_spec = x.ag_spec })
             selected)
  in
  match verdict with
  | Error msg -> raise (Compose_failed msg)
  | Ok t ->
      let table = t.Composition.table in
      Tel.set_gauge "compose.extensions" (float_of_int (List.length selected));
      Tel.set_gauge "grammar.productions"
        (float_of_int
           (List.length
              table.Grammar.Lalr.g.Grammar.Analysis.cfg.Cfg.productions));
      Tel.set_gauge "lalr.states" (float_of_int table.Grammar.Lalr.n_states);
      Tel.set_gauge "lalr.conflicts"
        (float_of_int (List.length table.Grammar.Lalr.conflicts));
      {
        selected;
        table;
        parser_ = t.Composition.parser_;
        determinism_reports = t.Composition.determinism_reports;
        ag_reports = t.Composition.ag_reports;
        rc = List.exists (fun x -> x.enables_rc) selected;
      }

(* --- pipeline --------------------------------------------------------------------- *)

type 'a outcome = Ok_ of 'a | Failed of Support.Diag.t list

(** [frontend c src] — scan, parse, build and typecheck [src].  Returns
    the typed AST or diagnostics. *)
let frontend (c : composed) (src : string) : Cminus.Ast.program outcome =
  match
    Tel.with_span ~phase:"parse" "frontend.parse" (fun () ->
        Parser.Driver.parse c.parser_ src)
  with
  | Error e -> Failed [ Parser.Driver.error_to_diag e ]
  | Ok tree -> (
      match
        Tel.with_span ~phase:"parse" "frontend.build" (fun () ->
            Cminus.Build.program tree)
      with
      | exception Cminus.Build.Build_error (m, span) ->
          Failed [ Support.Diag.error ~phase:"build" ~span "%s" m ]
      | ast ->
          let diags =
            Tel.with_span ~phase:"check" "frontend.check" (fun () ->
                Cminus.Check.check_program
                  (List.map (fun x -> x.check_hooks) c.selected)
                  ast)
          in
          if Support.Diag.has_errors diags then Failed diags else Ok_ ast)

(** The default pipeline for an extension selection: the CIR passes the
    extensions register, in pipeline order, each at its own default.  It
    needs no composition. *)
let selection_config (selected : extension list) : Pipeline.config =
  Pipeline.default (List.concat_map (fun x -> x.passes) selected)

(** The default pipeline for this composition. *)
let default_config (c : composed) : Pipeline.config = selection_config c.selected

let config_or_default config c =
  match config with Some cfg -> cfg | None -> default_config c

(** [lower c ast] — translate to the plain-C IR: one baseline lowering,
    then the pass pipeline [config] (default: every registered pass at
    its own default).  [warn] receives non-fatal diagnostics (e.g.
    transform scripts skipped under auto-parallelization); [sink]
    collects [--dump-ir] snapshots; [remarks] collects the lowering's
    and the passes' optimization remarks. *)
let lower ?config ?warn ?sink ?remarks (c : composed)
    (ast : Cminus.Ast.program) : Cir.Ir.program outcome =
  let cfg = config_or_default config c in
  match
    Tel.with_span ~phase:"lower" "driver.lower" (fun () ->
        let lowered =
          Cminus.Lower.lower_program ?warn ?remarks
            (List.map (fun x -> x.lower_hooks ()) c.selected)
            ~rc:c.rc ast
        in
        Pipeline.run cfg ~rc:c.rc ?warn ?sink ?remarks lowered)
  with
  | prog -> Ok_ prog
  | exception Cminus.Lower.Lower_error (m, span) ->
      Failed [ Support.Diag.error ~phase:"lower" ~span "%s" m ]
  | exception Cir.Pass.Error (m, span) ->
      Failed [ Support.Diag.error ~phase:"lower" ~span "%s" m ]

(** [compile_to_c c src] — the paper's headline artifact: extended C in,
    plain parallel C out.  [line_file] turns on [#line] directives naming
    that file, so C-level debuggers and profilers point back at the
    original source. *)
let compile_to_c ?config ?warn ?sink ?line_file ?instrument ?exec_harness
    (c : composed) (src : string) : string outcome =
  match frontend c src with
  | Failed d -> Failed d
  | Ok_ ast -> (
      match lower ?config ?warn ?sink c ast with
      | Failed d -> Failed d
      | Ok_ prog ->
          Ok_
            (Tel.with_span ~phase:"emit" "driver.emit" (fun () ->
                 Cir.Emit.program ?line_directives_file:line_file ?instrument
                   ?exec_harness prog)))

(* --- runtime failure -> structured diagnostic --------------------------------- *)

(* Every failure class the runtime can surface, mapped to a diagnostic.
   Exceptions the interpreter enriched with provenance ([Runtime_error],
   a span-carrying [Resource_limit]) keep their span and render with a
   caret excerpt; the rest, worded by {!Interp.Eval.message_of_exn},
   anchor at the dummy span.  Returns [None] for exceptions that are not
   program failures (driver bugs, Stack_overflow, Out_of_memory …) —
   those keep propagating. *)
let runtime_failure_diag exn =
  let d ?(span = Support.Pos.dummy_span) m =
    Support.Diag.error ~phase:"run" ~span "%s" m
  in
  match exn with
  | Interp.Eval.Runtime_error (m, span) -> Some (d ~span m)
  | Runtime.Limits.Resource_limit v ->
      Some (d ?span:v.Runtime.Limits.v_span (Runtime.Limits.describe v))
  | e -> Option.map d (Interp.Eval.message_of_exn e)

(* A given data directory must exist.  {!run}, {!exec} and {!profile}
   check it before compiling, so both backends fail with this one
   diagnostic whether or not the program touches a file (the native
   supervisor's chdir would otherwise fail as "exit code 127"). *)
let missing_data_dir = function
  | Some d when not (Sys.file_exists d && Sys.is_directory d) ->
      Some
        [
          Support.Diag.error ~phase:"run" ~span:Support.Pos.dummy_span
            "data directory %S does not exist or is not a directory" d;
        ]
  | _ -> None

(** [run c src args] — compile and execute on the parallel runtime.
    [pool] supplies the enhanced fork-join worker pool; [dir] hosts the
    program's matrix files (without it, a temporary directory that
    {!Interp.Eval.run} removes again). *)
let run ?config ?warn ?pool ?dir (c : composed) (src : string)
    (args : Interp.Eval.value list) : Interp.Eval.value outcome =
  Option.iter
    (fun p ->
      Tel.set_gauge "pool.threads" (float_of_int (Runtime.Pool.threads p)))
    pool;
  match missing_data_dir dir with
  | Some d -> Failed d
  | None ->
  match frontend c src with
  | Failed d -> Failed d
  | Ok_ ast -> (
      match lower ?config ?warn c ast with
      | Failed d -> Failed d
      | Ok_ prog -> (
          match
            Tel.with_span ~phase:"run" "driver.run" (fun () ->
                Interp.Eval.run ?pool ?dir prog args)
          with
          | v ->
              (* Memory gauges: what the program's RC discipline left
                 behind and how high the live set got. *)
              Tel.set_gauge "rc.live_bytes"
                (float_of_int (Runtime.Rc.live_bytes ()));
              Tel.set_gauge "rc.peak_bytes"
                (float_of_int (Runtime.Rc.peak_bytes ()));
              Tel.set_gauge "rc.allocated_bytes"
                (float_of_int (Runtime.Rc.allocated_bytes ()));
              Ok_ v
          | exception e -> (
              let bt = Printexc.get_raw_backtrace () in
              Tel.set_gauge "rc.live_bytes"
                (float_of_int (Runtime.Rc.live_bytes ()));
              match runtime_failure_diag e with
              | Some diag -> Failed [ diag ]
              | None -> Printexc.raise_with_backtrace e bt)))

(* --- native execution (mmc exec) --------------------------------------- *)

(* Map every native failure class to a diagnostic.  Compile-time classes
   (no compiler / sanitizer unsupported / emitted C rejected) report under
   "native-compile"; everything after a successful compile is
   "native-run".  A fault ([Guard_fault]: a failed check, allocation or
   matrix-file operation, an integer division by zero, a fired
   failpoint) carries the span its generated code named, so it renders
   the caret excerpt the interpreter's report of it does.  The other
   classes (a signal death, a deadline kill, an [mm_fatal] exit) have
   no span, as in the interpreter, and anchor at the dummy span. *)
let native_failure_diag (e : Native.Exec.error) =
  let phase =
    match e with
    | Native.Exec.Toolchain_error _ -> "native-compile"
    | Native.Exec.Run_failed _ | Native.Exec.Run_signaled _
    | Native.Exec.Run_timeout _ | Native.Exec.Guard_fault _
    | Native.Exec.Bad_output _ ->
        "native-run"
  in
  let span =
    match e with Native.Exec.Guard_fault f -> f.Native.Exec.f_span | _ -> None
  in
  let span = Option.value span ~default:Support.Pos.dummy_span in
  Support.Diag.error ~phase ~span "%s" (Native.Exec.describe_error e)

(** What {!exec} translates with.  [Selection exts] composes [exts] only
    when a translation runs: an exec index hit needs no translator. *)
type translator = Composed of composed | Selection of extension list

let selection = function Composed c -> c.selected | Selection exts -> exts

let composed_of = function Composed c -> c | Selection exts -> compose exts

(** [index_key ?build_id ~selected ~config ?line_file ?instrument
    ~toolchain src] — the exec index key of translating [src] with the
    extensions [selected] under [config] and these emit modes, for
    [toolchain].  [build_id] defaults to this build's. *)
let index_key ?(build_id = Build_id.id) ~selected ~config ?line_file
    ?(instrument = false) ~toolchain src =
  Native.Index.key ~build_id ~source:src
    ~extensions:(List.map (fun x -> x.x_name) selected)
    ~pipeline:(Pipeline.canon config) ~line_file ~instrument ~toolchain

(* A cache directory must be a directory, made with its parents when
   missing: the index and the binary cache write there. *)
let unusable_cache_dir dir =
  match Native.Cache.ensure_dir dir with
  | Ok () -> None
  | Error reason ->
      Some
        [
          Support.Diag.error ~phase:"native-compile" ~span:Support.Pos.dummy_span
            "cache directory %S cannot be used: %s" dir reason;
        ]

(** [exec t src] — the native twin of {!run}: emit self-contained C (exec
    harness included), compile it with the system toolchain through the
    binary cache, run the binary supervised in [dir] (without it, a
    temporary directory removed when [exec] returns), and parse its
    printed result.  The returned outcome's [value] matches what {!run}
    would have produced, bit-for-bit.

    The exec index ({!Native.Index}) sits in front of the binary cache:
    when it maps [src] and every other input of the translation to a
    cached binary, [exec] replays the translation's warnings through
    [warn] and runs that binary without composing, parsing, lowering or
    emitting anything.  A miss translates, compiles through the binary
    cache and records the entry once the binary exists.  [cache:false]
    and [keep_c] (it needs the C text) bypass the index.  The key and the
    lookup are the telemetry span [native.index].

    A failed compile or run is reported once, as the first error: no
    step is retried, and a crash at any thread count goes through crash
    triage. *)
let exec ?config ?(warn = ignore) ?dir ?cc ?(cflags = []) ?keep_c ?line_file
    ?instrument ?sanitize ?failpoints ?timeout_s ?max_bytes
    ?(cache = true) ?(cache_dir = Native.Cache.default_dir) ?(threads = 1)
    (t : translator) (src : string) : Native.Exec.outcome outcome =
  let cfg =
    match config with Some cfg -> cfg | None -> selection_config (selection t)
  in
  match (missing_data_dir dir, unusable_cache_dir cache_dir) with
  | Some d, _ | None, Some d -> Failed d
  | None, None -> (
      let index, hit =
        if cache && keep_c = None then
          Tel.with_span ~phase:"native" "native.index" (fun () ->
              let k =
                index_key ~selected:(selection t) ~config:cfg ?line_file
                  ?instrument
                  ~toolchain:(Native.Toolchain.configure ?cc ~cflags ?sanitize ())
                  src
              in
              (Some k, Native.Index.find ~dir:cache_dir k))
        else (None, None)
      in
      (* [binary ()]: the index hit, or the translated program resolved
         through the binary cache and then recorded in the index. *)
      let binary =
        match hit with
        | Some (b, warnings) ->
            List.iter warn warnings;
            Ok_ (fun () -> Ok b)
        | None -> (
            let warnings = ref [] in
            let warn d =
              warnings := d :: !warnings;
              warn d
            in
            match
              compile_to_c ~config:cfg ~warn ?line_file ?instrument
                ~exec_harness:true (composed_of t) src
            with
            | Failed d -> Failed d
            | Ok_ c_text ->
                Ok_
                  (fun () ->
                    let b =
                      Native.Exec.resolve ?cc ~cflags ~cache ~cache_dir ?keep_c
                        ?instrument ?sanitize ~pipeline:(Pipeline.canon cfg)
                        c_text
                    in
                    (match (b, index) with
                    | Ok b, Some k ->
                        Native.Index.record ~dir:cache_dir k b
                          (List.rev !warnings)
                    | _ -> ());
                    b))
      in
      match binary with
      | Failed d -> Failed d
      | Ok_ binary -> (
          Support.Tmpdir.with_dir ?dir ~prefix:"mmcfs" @@ fun dir ->
          match
            Tel.with_span ~phase:"run" "driver.exec" (fun () ->
                Result.bind (binary ())
                  (Native.Exec.run_binary ?instrument ?sanitize ?failpoints
                     ?timeout_s ?max_bytes ~threads ~dir))
          with
          | Ok outcome -> Ok_ outcome
          | Error e -> Failed [ native_failure_diag e ]))

(** [diags_to_string ?src ds] — rendered diagnostics; with [src] each one
    gains a clang-style source excerpt with a caret underline. *)
let diags_to_string ?src ds =
  match src with
  | None -> Fmt.str "%a" Support.Diag.pp_list ds
  | Some src -> Fmt.str "%a" (Support.Diag.pp_list_with_source src) ds

(* --- source-attributed profiling (mmc profile) ------------------------- *)

module Profile_report = struct
  module P = Support.Profile

  type t = P.report = {
    wall_ns : int;
    rows : P.row list;
    folded : (string * int) list;
    attributed_ns : int;
    unattributed_alloc : int;
    live_bytes : int;
    peak_bytes : int;
    allocated_bytes : int;
  }

  (** Snapshot the profiler's aggregates after a run measured at
      [wall_ns]. *)
  let collect ~wall_ns () =
    {
      wall_ns;
      rows = P.results ();
      folded = P.folded ();
      attributed_ns = P.attributed_ns ();
      unattributed_alloc = P.unattributed_alloc_bytes ();
      live_bytes = Runtime.Rc.live_bytes ();
      peak_bytes = Runtime.Rc.peak_bytes ();
      allocated_bytes = Runtime.Rc.allocated_bytes ();
    }

  (** A native profile (the JSON an instrumented binary printed, parsed
      by {!Native.Prof}) ordered like an
      interpreted one, so every renderer below works on both: rows by
      self time like [P.results ()], folded stacks by name. *)
  let of_native (n : t) =
    {
      n with
      rows =
        List.sort
          (fun (a : P.row) (b : P.row) ->
            compare b.P.r_self_ns a.P.r_self_ns)
          n.rows;
      folded = List.sort (fun (a, _) (b, _) -> String.compare a b) n.folded;
    }

  let coverage t =
    if t.wall_ns <= 0 then 1.0
    else float_of_int t.attributed_ns /. float_of_int t.wall_ns

  (* First source line of the span, trimmed and clipped — the "what the
     user wrote" column of the hot-loop table. *)
  let excerpt ~src (sp : Support.Pos.span) =
    match Support.Diag.source_line src sp.Support.Pos.left.Support.Pos.line with
    | None -> ""
    | Some line ->
        let line = String.trim line in
        if String.length line > 42 then String.sub line 0 39 ^ "..."
        else line

  let pct t ns =
    if t.wall_ns <= 0 then 0.
    else 100. *. float_of_int ns /. float_of_int t.wall_ns

  let human_bytes b =
    if b >= 1 lsl 20 then Printf.sprintf "%.1fM" (float_of_int b /. 1048576.)
    else if b >= 1024 then Printf.sprintf "%.1fK" (float_of_int b /. 1024.)
    else string_of_int b

  let ms ns = float_of_int ns /. 1e6

  (** Hot-loop table sorted by self time, plus memory summary lines. *)
  let pp ?(top = 15) ~src ppf t =
    Fmt.pf ppf "--- profile: hot source spans (%.3f ms wall) ---@." (ms t.wall_ns);
    Fmt.pf ppf "  %-12s %6s %10s %10s %8s %8s %9s  %s@." "span" "self%"
      "self ms" "total ms" "iters" "disp" "alloc" "source";
    let rows = List.filteri (fun i _ -> i < top) t.rows in
    List.iter
      (fun (r : P.row) ->
        Fmt.pf ppf "  %-12s %6.1f %10.3f %10.3f %8d %8d %9s  %s@."
          (Support.Pos.span_to_string r.P.r_span)
          (pct t r.P.r_self_ns) (ms r.P.r_self_ns) (ms r.P.r_total_ns)
          r.P.r_iters r.P.r_dispatches
          (human_bytes r.P.r_alloc_bytes)
          (excerpt ~src r.P.r_span))
      rows;
    (let dropped = List.length t.rows - List.length rows in
     if dropped > 0 then Fmt.pf ppf "  ... %d more spans@." dropped);
    Fmt.pf ppf "  attributed: %.1f%% of wall time@." (100. *. coverage t);
    let par = List.fold_left (fun a (r : P.row) -> a + r.P.r_par_ns) 0 t.rows in
    let seq = List.fold_left (fun a (r : P.row) -> a + r.P.r_seq_ns) 0 t.rows in
    Fmt.pf ppf "  par/seq self time: %.3f / %.3f ms@." (ms par) (ms seq);
    Fmt.pf ppf
      "  memory: %s allocated, %s peak live, %s still live, %s unattributed@."
      (human_bytes t.allocated_bytes)
      (human_bytes t.peak_bytes) (human_bytes t.live_bytes)
      (human_bytes t.unattributed_alloc)

  let to_string ?top ~src t = Fmt.str "%a" (pp ?top ~src) t

  (** Machine-readable snapshot; schema checked by [bench
      --check-profile-json]. *)
  let to_json ~src t =
    let j = Tel.json_string in
    let row (r : P.row) =
      Tel.json_obj
        [
          ("span", j (Support.Pos.span_to_string r.P.r_span));
          ("line", string_of_int r.P.r_span.Support.Pos.left.Support.Pos.line);
          ("source", j (excerpt ~src r.P.r_span));
          ("total_ns", string_of_int r.P.r_total_ns);
          ("self_ns", string_of_int r.P.r_self_ns);
          ("pct", Printf.sprintf "%.3f" (pct t r.P.r_self_ns));
          ("iters", string_of_int r.P.r_iters);
          ("dispatches", string_of_int r.P.r_dispatches);
          ("par_ns", string_of_int r.P.r_par_ns);
          ("seq_ns", string_of_int r.P.r_seq_ns);
          ("alloc_bytes", string_of_int r.P.r_alloc_bytes);
          ( "workers",
            Tel.json_obj
              (List.map
                 (fun (w, ns) -> (string_of_int w, string_of_int ns))
                 (List.sort compare r.P.r_worker_ns)) );
        ]
    in
    Tel.json_obj
      [
        ("wall_ns", string_of_int t.wall_ns);
        ("attributed_ns", string_of_int t.attributed_ns);
        ("coverage", Printf.sprintf "%.4f" (coverage t));
        ("rows", "[" ^ String.concat "," (List.map row t.rows) ^ "]");
        ( "memory",
          Tel.json_obj
            [
              ("allocated_bytes", string_of_int t.allocated_bytes);
              ("peak_bytes", string_of_int t.peak_bytes);
              ("live_bytes", string_of_int t.live_bytes);
              ("unattributed_alloc_bytes", string_of_int t.unattributed_alloc);
            ] );
      ]

  (** Folded-stack lines ("outer;inner self_ns") for flamegraph tools. *)
  let folded_lines t =
    List.map (fun (path, ns) -> Printf.sprintf "%s %d" path ns) t.folded

  (** Schema check for {!to_json} output (shared by [bench
      --check-profile-json] and the native-profile tests: interp and
      native reports must satisfy the same contract).  Returns the list
      of problems, empty when the document conforms. *)
  let validate_json (j : Support.Json.t) : string list =
    let module J = Support.Json in
    let problems = ref [] in
    let bad fmt = Format.kasprintf (fun m -> problems := m :: !problems) fmt in
    let need_num obj ctx name =
      if J.num_field obj name = None then bad "%s: missing number %S" ctx name
    in
    List.iter (need_num j "top-level") [ "wall_ns"; "attributed_ns"; "coverage" ];
    (match J.num_field j "coverage" with
    | Some c when c < 0.0 || c > 1.5 -> bad "coverage %.3f out of range" c
    | _ -> ());
    (match Option.bind (J.field "rows" j) J.arr with
    | None -> bad "top-level: missing array \"rows\""
    | Some rows ->
        List.iteri
          (fun i row ->
            let ctx = Printf.sprintf "rows[%d]" i in
            if Option.bind (J.field "span" row) J.str = None then
              bad "%s: missing string \"span\"" ctx;
            if Option.bind (J.field "source" row) J.str = None then
              bad "%s: missing string \"source\"" ctx;
            List.iter (need_num row ctx)
              [
                "line"; "total_ns"; "self_ns"; "pct"; "iters"; "dispatches";
                "par_ns"; "seq_ns"; "alloc_bytes";
              ];
            match J.field "workers" row with
            | Some (J.Obj _) -> ()
            | _ -> bad "%s: missing object \"workers\"" ctx)
          rows);
    (match J.field "memory" j with
    | Some mem ->
        List.iter (need_num mem "memory")
          [
            "allocated_bytes"; "peak_bytes"; "live_bytes";
            "unattributed_alloc_bytes";
          ]
    | None -> bad "top-level: missing object \"memory\"");
    List.rev !problems

  (* --- interp-vs-native differential ----------------------------------- *)

  type diff_row = {
    d_span : string;
    d_line : int;
    d_source : string;
    d_interp_self_ns : int option;  (** [None]: span absent on that side *)
    d_native_self_ns : int option;
    d_speedup : float option;  (** interp self / native self, both present *)
    d_lagging : bool;
        (** a significant span whose native speedup trails the
            program-level interp/native ratio by more than half *)
  }

  type diff = {
    interp_wall_ns : int;
    native_wall_ns : int;
    program_ratio : float;  (** interp wall / native wall *)
    diff_rows : diff_row list;
  }

  (** Join an interpreted and a native report span-by-span (on the
      rendered span string — both sides derive it from the same
      provenance).  A span is flagged lagging when it holds at least 1%
      of interp wall time yet its native speedup is under half the
      program-level ratio: the loops where native code gains least. *)
  let diff_reports ~src ~(interp : t) ~(native : t) : diff =
    let program_ratio =
      if native.wall_ns <= 0 then 0.
      else float_of_int interp.wall_ns /. float_of_int native.wall_ns
    in
    let key (r : P.row) = Support.Pos.span_to_string r.P.r_span in
    let native_tbl = Hashtbl.create 16 in
    List.iter (fun r -> Hashtbl.replace native_tbl (key r) r) native.rows;
    let seen = Hashtbl.create 16 in
    let row_of (r : P.row) =
      let k = key r in
      Hashtbl.replace seen k ();
      let n = Hashtbl.find_opt native_tbl k in
      let interp_self = r.P.r_self_ns in
      let native_self = Option.map (fun (n : P.row) -> n.P.r_self_ns) n in
      let speedup =
        match native_self with
        | Some ns when ns > 0 -> Some (float_of_int interp_self /. float_of_int ns)
        | _ -> None
      in
      let significant =
        interp.wall_ns > 0
        && float_of_int interp_self >= 0.01 *. float_of_int interp.wall_ns
      in
      {
        d_span = k;
        d_line = r.P.r_span.Support.Pos.left.Support.Pos.line;
        d_source = excerpt ~src r.P.r_span;
        d_interp_self_ns = Some interp_self;
        d_native_self_ns = native_self;
        d_speedup = speedup;
        d_lagging =
          (significant
          &&
          match speedup with
          | Some s -> s < 0.5 *. program_ratio
          | None -> false);
      }
    in
    let joined = List.map row_of interp.rows in
    (* Native-only spans (e.g. loops the interpreter ran inside a pool
       region) still show, so nothing silently disappears. *)
    let native_only =
      List.filter_map
        (fun (r : P.row) ->
          let k = key r in
          if Hashtbl.mem seen k then None
          else
            Some
              {
                d_span = k;
                d_line = r.P.r_span.Support.Pos.left.Support.Pos.line;
                d_source = excerpt ~src r.P.r_span;
                d_interp_self_ns = None;
                d_native_self_ns = Some r.P.r_self_ns;
                d_speedup = None;
                d_lagging = false;
              })
        native.rows
    in
    {
      interp_wall_ns = interp.wall_ns;
      native_wall_ns = native.wall_ns;
      program_ratio;
      diff_rows = joined @ native_only;
    }

  let pp_diff ppf (d : diff) =
    Fmt.pf ppf
      "--- interp vs native: %.3f ms -> %.3f ms (%.1fx program speedup) ---@."
      (ms d.interp_wall_ns) (ms d.native_wall_ns) d.program_ratio;
    Fmt.pf ppf "  %-12s %12s %12s %9s  %s@." "span" "interp ms" "native ms"
      "speedup" "source";
    List.iter
      (fun r ->
        let side = function
          | Some ns -> Printf.sprintf "%12.3f" (ms ns)
          | None -> Printf.sprintf "%12s" "-"
        in
        Fmt.pf ppf "  %-12s %s %s %9s  %s%s@." r.d_span
          (side r.d_interp_self_ns) (side r.d_native_self_ns)
          (match r.d_speedup with
          | Some s -> Printf.sprintf "%.1fx" s
          | None -> "-")
          r.d_source
          (if r.d_lagging then "  << lagging" else ""))
      d.diff_rows;
    if List.exists (fun r -> r.d_lagging) d.diff_rows then
      Fmt.pf ppf
        "  << lagging: native speedup under half the program ratio for a \
         span holding >= 1%% of interp time@."

  let diff_to_string d = Fmt.str "%a" pp_diff d

  let diff_to_json (d : diff) =
    let j = Tel.json_string in
    let opt_ns = function Some ns -> string_of_int ns | None -> "null" in
    let row r =
      Tel.json_obj
        [
          ("span", j r.d_span);
          ("line", string_of_int r.d_line);
          ("source", j r.d_source);
          ("interp_self_ns", opt_ns r.d_interp_self_ns);
          ("native_self_ns", opt_ns r.d_native_self_ns);
          ( "speedup",
            match r.d_speedup with
            | Some s -> Printf.sprintf "%.3f" s
            | None -> "null" );
          ("lagging", if r.d_lagging then "true" else "false");
        ]
    in
    Tel.json_obj
      [
        ("interp_wall_ns", string_of_int d.interp_wall_ns);
        ("native_wall_ns", string_of_int d.native_wall_ns);
        ("program_ratio", Printf.sprintf "%.3f" d.program_ratio);
        ("rows", "[" ^ String.concat "," (List.map row d.diff_rows) ^ "]");
      ]
end

(* --- compiler decision tracing (mmc explain) --------------------------- *)

module Explain_report = struct
  (** What [mmc explain] renders: every optimization remark the pipeline
      emitted while compiling the file, plus the rendered [--dump-ir]
      snapshots when any were requested. *)
  type t = {
    remarks : Support.Remark.t list;
    dump : string;  (** rendered IR snapshots; [""] when none requested *)
  }

  let collect ~remarks ?sink () =
    {
      remarks = Support.Remark.results remarks;
      dump =
        (match sink with
        | Some s when s.Cir.Snapshot.passes <> [] -> Cir.Snapshot.to_string s
        | _ -> "");
    }

  (** Keep only remarks matching the [--only pass=…]/[--only kind=…]
      filters. *)
  let filter ?pass ?kind t =
    { t with remarks = Support.Remark.filter ?pass ?kind t.remarks }

  (** Remark table grouped by pass; with [src], each remark renders a
      caret excerpt.  IR snapshots (if any) follow the table. *)
  let pp ?src ppf t =
    Support.Remark.pp ?src ppf t.remarks;
    if t.dump <> "" then Fmt.pf ppf "@.%s" t.dump

  let to_string ?src t = Fmt.str "%a" (pp ?src) t

  (** Machine-readable report; schema checked by
      [bench --check-explain-json]. *)
  let to_json t = Support.Remark.to_json t.remarks
end

(** The default pipeline of {!explain}: auto-parallelization on — it
    answers "what would the optimizer do", so the default shows the full
    pipeline at work. *)
let explain_config (selected : extension list) : Pipeline.config =
  Pipeline.enable (selection_config selected) "auto-par" true

(** [explain ?… c src] — compile [src] into a remark collector of its
    own and return (lowering outcome, report).  [dump_passes]/[ir_diff]
    drive the pass-by-pass IR snapshots: the program is lowered exactly
    once and the pass manager records each requested ["ir after <pass>"]
    snapshot as the pipeline reaches that stage (the transform pass
    records its own per-clause snapshots into the same sink). *)
let explain ?config ?(dump_passes = []) ?(ir_diff = false) ?warn
    (c : composed) (src : string) :
    Cir.Ir.program outcome * Explain_report.t =
  let cfg =
    match config with Some cfg -> cfg | None -> explain_config c.selected
  in
  let remarks = Support.Remark.collector () in
  let sink = Cir.Snapshot.create ~passes:dump_passes ~diff:ir_diff () in
  match frontend c src with
  | Failed d -> (Failed d, Explain_report.collect ~remarks ~sink ())
  | Ok_ ast ->
      let out = lower ~config:cfg ?warn ~sink ~remarks c ast in
      (out, Explain_report.collect ~remarks ~sink ())

(** [profile ?… c src args] — run [src] with the source-attributed
    profiler enabled and return (program result outcome, report).  The
    profiler is reset first and the run counts its matrices in a ledger
    of its own, so the report covers exactly this run; the wall clock
    starts after lowering so the report's coverage measures execution,
    not compilation.  [config] defaults to
    the pipeline {!run} compiles. *)
let profile ?config ?warn ?pool ?dir
    (c : composed) (src : string) (args : Interp.Eval.value list) :
    Interp.Eval.value outcome * Profile_report.t =
  Option.iter
    (fun p ->
      Tel.set_gauge "pool.threads" (float_of_int (Runtime.Pool.threads p)))
    pool;
  let prep =
    match missing_data_dir dir with
    | Some d -> Failed d
    | None -> (
        match frontend c src with
        | Failed d -> Failed d
        | Ok_ ast -> lower ?config ?warn c ast)
  in
  match prep with
  | Failed d -> (Failed d, Profile_report.collect ~wall_ns:0 ())
  | Ok_ prog -> (
      Support.Profile.reset ();
      Support.Profile.set_enabled true;
      let t0 = Tel.now_ns () in
      let finish () =
        let wall_ns = Tel.now_ns () - t0 in
        Support.Profile.set_enabled false;
        Tel.set_gauge "rc.live_bytes" (float_of_int (Runtime.Rc.live_bytes ()));
        Tel.set_gauge "rc.peak_bytes" (float_of_int (Runtime.Rc.peak_bytes ()));
        Profile_report.collect ~wall_ns ()
      in
      match
        Tel.with_span ~phase:"run" "driver.profile_run" (fun () ->
            Interp.Eval.run ?pool ?dir prog args)
      with
      | v -> (Ok_ v, finish ())
      | exception e -> (
          let bt = Printexc.get_raw_backtrace () in
          let report = finish () in
          match runtime_failure_diag e with
          | Some diag -> (Failed [ diag ], report)
          | None -> Printexc.raise_with_backtrace e bt))

(** [profile_native ?… t src] — the native twin of {!profile}: emit
    instrumented C (exec harness plus mm_prof enter/exit calls over the
    generated span table), compile and run it through {!exec}
    (instrumented binaries key separately), and parse the profile the
    binary printed back into the same report shape [mmc profile]
    renders for interpreted runs.  [config] defaults to the
    pipeline {!exec} compiles. *)
let profile_native ?config ?warn ?dir ?cc ?cflags
    ?keep_c ?cache ?cache_dir ?(threads = 1) ?line_file (t : translator)
    (src : string) : (Native.Exec.outcome * Profile_report.t) outcome =
  match
    exec ?config ?warn ?dir ?cc ?cflags ?keep_c ?line_file
      ~instrument:true ?cache ?cache_dir ~threads t src
  with
  | Failed d -> Failed d
  | Ok_ outcome -> (
      (* an instrumented run's outcome always carries the profile line *)
      match
        Native.Prof.parse
          (Option.value outcome.Native.Exec.profile_json ~default:"")
      with
      | Error m ->
          Failed
            [
              Support.Diag.error ~phase:"native-run"
                ~span:Support.Pos.dummy_span "cannot parse native profile: %s"
                m;
            ]
      | Ok prof -> Ok_ (outcome, Profile_report.of_native prof))
