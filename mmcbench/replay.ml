(* The traced replay of one `mmc exec` / `mmc run` invocation
   (`mmcbench --trace-one ...`).  mmcbench runs it as a fresh child per
   sample, so per-process costs -- module initialisation, the toolchain
   probe and its memo -- are paid exactly as the CLI pays them.

   The replay makes the calls bin/mmc.ml makes, in the same order, and
   times each one from here: nothing inside lib/ is instrumented.  The
   configuration is resolved as mmc resolves it (auto-par on iff
   --threads > 1; exec also pins fuse and copy-elim on), and the cache key
   carries [Pipeline.canon] of it, so a replay hits the slots the CLI
   filled.

   After the replay, further calls time the pieces the CLI only runs
   inside a larger call (the four composition analyses, the parser alone)
   and count optimisation remarks through [Driver.explain].  Their wall
   time is reported as [trace.extra.ms] so the parent can take it out of
   the child's wall time: process.ms covers the replay alone. *)

let now = Support.Telemetry.now_ns
let ms ns = float_of_int ns /. 1e6

let timed f =
  let t0 = now () in
  let r = f () in
  (r, ms (now () - t0))

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("mmcbench --trace-one: " ^ m);
      exit 1)
    fmt

let ok_or_die ~src what = function
  | Driver.Ok_ x -> x
  | Driver.Failed ds ->
      die "%s failed:\n%s" what (Driver.diags_to_string ~src ds)

(* Peak resident set of this process so far, in MB. *)
let vm_hwm_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun l ->
             match String.split_on_char ':' l with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.)
             | _ -> None)
      |> Option.value ~default:0.

(** [run ~cmd ~threads ~data_dir ~cache_dir file] replays
    [mmc <cmd> --threads N --data-dir D [--cache-dir C] file] and prints
    one ["name value"] line per measurement, then ["result <value>"] as
    the CLI would print it. *)
let run ~cmd ~threads ~data_dir ~cache_dir file =
  let out = ref [] in
  let row name v = out := (name, v) :: !out in
  let c, t = timed (fun () -> Driver.compose Driver.all_extensions) in
  row "compose.ms" t;
  let module P = Driver.Pipeline in
  let config =
    let cfg = Driver.default_config c in
    let cfg =
      if cmd = "exec" then P.enable (P.enable cfg "fuse" true) "copy-elim" true
      else cfg
    in
    P.enable cfg "auto-par" (threads > 1)
  in
  let src = In_channel.with_open_text file In_channel.input_all in
  let warn d = prerr_endline (Driver.diags_to_string ~src [ d ]) in
  let front_and_lower () =
    let ast, t = timed (fun () -> Driver.frontend c src) in
    row "frontend.ms" t;
    let ast = ok_or_die ~src "frontend" ast in
    let prog, t = timed (fun () -> Driver.lower ~config ~warn c ast) in
    row "lower.ms" t;
    ok_or_die ~src "lower" prog
  in
  let result, live =
    match cmd with
    | "exec" -> (
        let prog = front_and_lower () in
        let c_text, t =
          timed (fun () -> Cir.Emit.program ~exec_harness:true prog)
        in
        row "emit.ms" t;
        row "emit.c_bytes" (float_of_int (String.length c_text));
        let tc, t = timed (fun () -> Native.Toolchain.probe ()) in
        row "native.probe.ms" t;
        let tc =
          match tc with
          | Ok tc -> tc
          | Error e -> die "%s" (Native.Toolchain.describe_error e)
        in
        let pipeline = P.canon config in
        let (k, hit), t =
          timed (fun () ->
              let k = Native.Cache.key ~toolchain:tc ~pipeline c_text in
              (k, Native.Cache.lookup ~dir:cache_dir k))
        in
        row "native.cache_key.ms" t;
        row "native.cache_hit" (if hit = None then 0. else 1.);
        let (), t =
          timed (fun () ->
              if hit = None then
                let c_files =
                  Native.Cache.write_sources ~dir:cache_dir ~k c_text
                in
                let exe = Native.Cache.exe_path ~dir:cache_dir k in
                match Native.Toolchain.compile tc ~c_files ~out:exe with
                | Ok () -> ()
                | Error e -> die "%s" (Native.Toolchain.describe_error e))
        in
        row "native.compile.ms" t;
        let o, t =
          timed (fun () ->
              Native.Exec.run ~cache_dir ~threads ~dir:data_dir ~pipeline
                c_text)
        in
        row "native.run.ms" t;
        match o with
        | Ok o ->
            (Fmt.str "%a" Native.Exec.pp_value o.value, o.Native.Exec.live)
        | Error e -> die "%s" (Native.Exec.describe_error e))
    | _ ->
        (* mmc run builds the pool first, then compiles and runs inside
           it; the pool's lifetime is charged to interp.run.ms. *)
        let body pool =
          Runtime.Rc.reset ();
          let prog = front_and_lower () in
          let v =
            try Interp.Eval.run ?pool ~dir:data_dir prog []
            with e -> die "interpreter: %s" (Printexc.to_string e)
          in
          (Fmt.str "%a" Interp.Eval.pp_value v, Runtime.Rc.live_count ())
        in
        let r, t =
          timed (fun () ->
              if threads > 1 then
                Runtime.Pool.with_pool threads (fun p -> body (Some p))
              else body None)
        in
        let inner =
          List.fold_left
            (fun acc (n, v) ->
              if n = "frontend.ms" || n = "lower.ms" then acc +. v else acc)
            0. !out
        in
        row "interp.run.ms" (t -. inner);
        row "interp.rc_allocs"
          (float_of_int (Runtime.Rc.stats ()).Runtime.Rc.allocs);
        row "interp.rc_peak_mb"
          (float_of_int (Runtime.Rc.peak_bytes ()) /. 1048576.);
        r
  in
  row "process.peak_rss_mb" (vm_hwm_mb ());
  row "live" (float_of_int live);
  row "compose.lalr_states" (float_of_int c.Driver.table.Grammar.Lalr.n_states);
  (* --- not part of the replayed invocation ---------------------------- *)
  let t_extra = now () in
  let each f () = List.iter (fun x -> ignore (f x)) Driver.all_extensions in
  row "compose.determinism.ms"
    (snd
       (timed
          (each (fun x ->
               Grammar.Determinism.check Driver.effective_host x.Driver.grammar))));
  row "compose.wellformed.ms"
    (snd
       (timed
          (each (fun x ->
               Ag.Wellformed.check ~host:Driver.host_ag_spec x.Driver.ag_spec))));
  let g =
    Grammar.Cfg.compose Driver.effective_host
      (List.map (fun x -> x.Driver.grammar) Driver.all_extensions)
  in
  let table, t = timed (fun () -> Grammar.Lalr.build g) in
  row "compose.lalr.ms" t;
  row "compose.scanner.ms" (snd (timed (fun () -> Parser.Driver.create table)));
  row "frontend.parse.ms"
    (snd (timed (fun () -> Parser.Driver.parse c.Driver.parser_ src)));
  let _, report = Driver.explain ~config c src in
  Support.Remark.set_enabled false;
  let remarks kind =
    float_of_int
      (List.length
         (Support.Remark.filter ~kind report.Driver.Explain_report.remarks))
  in
  row "lower.remarks_applied" (remarks Support.Remark.Applied);
  row "lower.remarks_missed" (remarks Support.Remark.Missed);
  row "trace.extra.ms" (ms (now () - t_extra));
  List.iter (fun (n, v) -> Printf.printf "%s %.17g\n" n v) (List.rev !out);
  Printf.printf "result %s\n" result
