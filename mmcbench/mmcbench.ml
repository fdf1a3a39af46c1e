(* mmcbench — what a user of mmc waits for: the wall time of one
   `mmc exec` / `mmc run` process, from spawn to exit.

     dune build bin/mmc.exe mmcbench/mmcbench.exe
     _build/default/mmcbench/mmcbench.exe --workload warm-exec --seed 1 \
       --seconds 20 --trace 0

   Run from the repository root.  Each invocation is one process of the
   real _build/default/bin/mmc.exe, in a closed loop with a single client;
   no child runs more threads than the workload's --threads (at most 2).
   Every invocation's output is checked against a reference that does not
   come from the compiler (oracle.ml).

   --trace 0 measures the end-to-end metrics.  --trace 1 instead follows
   each CLI invocation with a fresh child of this executable that replays
   it through the layers' public functions, timing each call (replay.ml):
   a per-layer budget that sums to the child's wall time.

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  See README.md. *)

module Nd = Runtime.Ndarray

let now = Support.Telemetry.now_ns
let ms ns = float_of_int ns /. 1e6

(* --- files and strings ---------------------------------------------------- *)

let mmc_exe =
  (* _build/default/mmcbench/mmcbench.exe -> _build/default/bin/mmc.exe *)
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "mmc.exe")

let golden = Filename.concat "test" "golden"
let work_root = Filename.concat "mmcbench" "work"
let results_dir = Filename.concat "mmcbench" "results"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then
      Some (String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n))
    else go (i + 1)
  in
  go 0

let take n l = List.filteri (fun i _ -> i < n) l

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- statistics ----------------------------------------------------------- *)

(* Linear interpolation between closest ranks; 0 for no samples. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* --- workloads ------------------------------------------------------------ *)

let corpus () =
  Sys.readdir golden |> Array.to_list
  |> List.filter_map (Filename.chop_suffix_opt ~suffix:".mc")
  |> List.sort compare

(* Every named corpus program, and a seeded draw of five of the twenty
   generated randNN programs: those cost the same as one another, and
   priming all of them would take half of a run. *)
let corpus_draw rng =
  let generated, named =
    List.partition (String.starts_with ~prefix:"rand") (corpus ())
  in
  named @ take 5 (shuffle rng generated)

(* The analysis programs: I/O-bound (fig1, fig9 parse a text cube),
   allocation-heavy (fig8's matrixMap of tuples and slices) and
   compute-bound (fig4, eddy_energy). *)
let cube_programs _ =
  [
    "fig1_temporal_mean"; "fig9_transformed"; "fig4_conncomp"; "fig8_scoring";
    "fig1_with_slice_copy"; "eddy_energy";
  ]

type workload = {
  name : string;
  cmd : string;  (** mmc subcommand: "exec" or "run" *)
  threads : int;
  edit : bool;  (** a fresh no-op statement per invocation: the C is new *)
  programs : Random.State.t -> string list;
  cube : int * int * int;  (** size of the readMatrix programs' SSH cube *)
  eddy : int * int * int;  (** size eddy_energy is rewritten to *)
}

let shipped_eddy = (48, 48, 64)

let workloads =
  [
    {
      name = "warm-exec";
      cmd = "exec";
      threads = 1;
      edit = false;
      programs = corpus_draw;
      cube = (12, 14, 8);
      eddy = shipped_eddy;
    };
    {
      name = "cold-edit";
      cmd = "exec";
      threads = 1;
      edit = true;
      programs = corpus_draw;
      cube = (12, 14, 8);
      eddy = shipped_eddy;
    };
    {
      name = "native-cube";
      cmd = "exec";
      threads = 2;
      edit = false;
      programs = cube_programs;
      cube = (96, 96, 64);
      eddy = (128, 128, 96);
    };
    {
      name = "interp-cube";
      cmd = "run";
      threads = 2;
      edit = false;
      programs = cube_programs;
      cube = (40, 40, 32);
      eddy = shipped_eddy;
    };
  ]

(* --- one workload's state ------------------------------------------------- *)

type program = { pname : string; source : string; expect : Oracle.expect }

type state = {
  w : workload;
  dir : string;
  data : string;
  cache : string;
  env : string array;  (** the children's: TMPDIR inside [dir] *)
  rng : Random.State.t;
  edits : (int, unit) Hashtbl.t;
  order : program list;  (** one cycle, in seeded order *)
  mutable last_reference : float option;
  mutable attempted : int;
  mutable failures : string list;
}

let fail st msg =
  if List.length st.failures < 10 then prerr_endline ("mmcbench: FAILED " ^ msg);
  st.failures <- msg :: st.failures

let rec waitpid pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let open_out_fd f =
  Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644

(** [spawn ~env ~dir argv] runs one child to completion with its output
    in files under [dir]; returns its status, its wall time in ms
    (monotonic clock, spawn to reap), stdout and stderr. *)
let spawn ~env ~dir argv =
  let out = Filename.concat dir "stdout" and err = Filename.concat dir "stderr" in
  let fo = open_out_fd out and fe = open_out_fd err in
  let t0 = now () in
  let status =
    Fun.protect
      ~finally:(fun () ->
        Unix.close fo;
        Unix.close fe)
      (fun () -> waitpid (Unix.create_process_env argv.(0) argv env Unix.stdin fo fe))
  in
  let wall = ms (now () - t0) in
  (status, wall, read_file out, read_file err)

(* On a shared host, speed drifts by tens of percent within minutes,
   far more than the changes the benchmark must resolve.  So every timed
   invocation is bracketed by a reference task -- [threads] concurrent
   `cc -c` of an empty main, one per core the invocation may use -- and
   also reported as it would take on a host where the reference takes
   [reference_ms]: wall * reference_ms / (mean of the two brackets). *)
let reference_ms = 15.

let reference st =
  let src = Filename.concat st.dir "reference.c" in
  if not (Sys.file_exists src) then write_file src "int main(void) { return 0; }\n";
  let log = open_out_fd (Filename.concat st.dir "reference.log") in
  let t0 = now () in
  let pids =
    List.init st.w.threads (fun k ->
        let obj = Filename.concat st.dir (Printf.sprintf "reference%d.o" k) in
        Unix.create_process_env "cc" [| "cc"; "-c"; src; "-o"; obj |] st.env Unix.stdin
          log log)
  in
  let ok = List.for_all (fun pid -> waitpid pid = Unix.WEXITED 0) pids in
  let t = ms (now () - t0) in
  Unix.close log;
  if not ok then failwith "the reference compile (cc -c) failed";
  t

(* The file mmc is handed; under [edit] it is rewritten before every
   invocation with a seeded, never-repeated constant of fixed width (so
   the emitted C differs but its length does not). *)
let source_path st p =
  let path = Filename.concat st.dir (p.pname ^ ".mc") in
  if st.w.edit || not (Sys.file_exists path) then begin
    let rec fresh () =
      let k = 100_000 + Random.State.int st.rng 900_000 in
      if Hashtbl.mem st.edits k then fresh ()
      else (
        Hashtbl.add st.edits k ();
        k)
    in
    write_file path
      (if not st.w.edit then p.source
       else
         Option.get
           (replace_first ~sub:"int main() {"
              ~by:(Printf.sprintf "int main() {\n  int bench_edit = %d;" (fresh ()))
              p.source))
  end;
  path

let prepare st p =
  List.iter (fun (f, _) -> rm_rf (Filename.concat st.data f)) p.expect.Oracle.files;
  source_path st p

let check_outputs st p =
  List.find_map
    (fun (f, check) ->
      match Nd.read_file (Filename.concat st.data f) with
      | m -> Option.map (fun msg -> f ^ " " ^ msg) (check m)
      | exception e ->
          Some (Printf.sprintf "cannot read %s: %s" f (Printexc.to_string e)))
    p.expect.Oracle.files

let status_error = function
  | Unix.WEXITED 0 -> None
  | Unix.WEXITED c -> Some (Printf.sprintf "exit status %d" c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Some (Printf.sprintf "killed by signal %d" s)

(* The native runtime updates its live-allocation count without atomics
   inside OpenMP regions, so above one thread the count -- and the CLI's
   "still live at exit" warning, either sign -- is noise; the traced
   native.live_nonzero reports it instead. *)
let live_count_exact w = w.cmd = "run" || w.threads = 1

(** One CLI invocation, checked.  Returns its wall time and, when it
    passed, the value it printed. *)
let invoke st p =
  let src = prepare st p in
  let argv =
    Array.of_list
      ([ mmc_exe; st.w.cmd; "--threads"; string_of_int st.w.threads ]
      @ [ "--data-dir"; st.data ]
      @ (if st.w.cmd = "exec" then [ "--cache-dir"; st.cache ] else [])
      @ [ src ])
  in
  let status, wall, out, err = spawn ~env:st.env ~dir:st.dir argv in
  st.attempted <- st.attempted + 1;
  let result =
    String.split_on_char '\n' out
    |> List.find_map (fun l ->
           if String.starts_with ~prefix:"result: " l then
             Some (String.sub l 8 (String.length l - 8))
           else None)
  in
  let problem =
    match status_error status with
    | Some e -> Some (e ^ ": " ^ String.trim err)
    | None when result <> Some p.expect.Oracle.result ->
        Some
          (Printf.sprintf "printed %S, expected result: %s"
             (Option.value result ~default:"no result line")
             p.expect.Oracle.result)
    | None when live_count_exact st.w && contains ~sub:"still live at exit" err ->
        Some ("stderr: " ^ String.trim err)
    | None -> check_outputs st p
  in
  match problem with
  | Some m ->
      fail st (Printf.sprintf "%s %s: %s" st.w.name p.pname m);
      (wall, None)
  | None -> (wall, result)

type sample = { prog : string; wall : float; before : float; after : float }

(** [invoke] bracketed by reference tasks. *)
let timed st p =
  let before =
    match st.last_reference with Some r -> r | None -> reference st
  in
  let wall, _ = invoke st p in
  let after = reference st in
  st.last_reference <- Some after;
  { prog = p.pname; wall; before; after }

(** The wall time at reference speed. *)
let normalised s = s.wall *. reference_ms *. 2. /. (s.before +. s.after)

(* --- set-up --------------------------------------------------------------- *)

let resize_eddy (m, n, p) src =
  let m0, n0, p0 = shipped_eddy in
  List.fold_left
    (fun src (var, old, v) ->
      match
        replace_first
          ~sub:(Printf.sprintf "int %s = %d;" var old)
          ~by:(Printf.sprintf "int %s = %d;" var v)
          src
      with
      | Some s -> s
      | None -> failwith "eddy_energy.mc no longer declares its sizes")
    src
    [ ("m", m0, m); ("n", n0, n); ("p", p0, p) ]

(** Inputs and references for [w] at [seed], then one priming invocation
    per program -- the cold first run, which for exec is the compile that
    fills the cache.  Returns the state and the priming samples. *)
let setup ~seed ~smoke w =
  let dir =
    Filename.concat (Sys.getcwd ())
      (Filename.concat work_root (Printf.sprintf "%s-%d" w.name (Unix.getpid ())))
  in
  rm_rf dir;
  let data = Filename.concat dir "data" and cache = Filename.concat dir "cache" in
  let tmp = Filename.concat dir "tmp" in
  List.iter mkdir_p [ data; cache; tmp ];
  let cube_size, eddy =
    if smoke then ((12, 14, 8), shipped_eddy) else (w.cube, w.eddy)
  in
  let cube = Oracle.cube ~seed cube_size in
  let _, _, p = cube_size in
  let dates = Oracle.dates p in
  Nd.write_file (Filename.concat data "ssh.data") cube;
  Nd.write_file (Filename.concat data "dates.data") dates;
  let rng = Random.State.make [| seed |] in
  let program pname =
    let source = read_file (Filename.concat golden (pname ^ ".mc")) in
    let source =
      if pname = "eddy_energy" then resize_eddy eddy source else source
    in
    match Oracle.expect ~golden ~cube ~dates ~eddy pname with
    | Ok expect -> { pname; source; expect }
    | Error m -> failwith m
  in
  let order = shuffle rng (List.map program (w.programs rng)) in
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun v -> not (String.starts_with ~prefix:"TMPDIR=" v))
    |> List.cons ("TMPDIR=" ^ tmp)
    |> Array.of_list
  in
  let st =
    {
      w;
      dir;
      data;
      cache;
      env;
      rng;
      edits = Hashtbl.create 64;
      order = (if smoke then take 3 order else order);
      last_reference = None;
      attempted = 0;
      failures = [];
    }
  in
  (st, List.map (timed st) st.order)

(* Invocations in the seeded order, cycling, until [seconds] have passed
   and every program has run at least once. *)
let cycles ~seconds st f =
  let t0 = now () and n = List.length st.order in
  let rec go i = function
    | [] -> go i st.order
    | p :: rest ->
        f p;
        if i + 1 < n || ms (now () - t0) < seconds *. 1000. then go (i + 1) rest
  in
  go 0 st.order

(* --- the end-to-end pass -------------------------------------------------- *)

type report = {
  r_name : string;
  r_attempted : int;
  r_failures : string list;
  r_count : int;  (** timed invocations, or traced samples *)
  r_samples : sample list;  (** the timed invocations; none when traced *)
  r_metrics : (string * string * float) list;
  r_info : (string * float) list;  (** shown and recorded, not bounded *)
}

let geomean xs =
  let n = float_of_int (List.length xs) in
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. n)

(* Each percentile is taken per program, then combined by geometric mean
   over the workload's programs: pooled, the percentiles of programs that
   differ several-fold in cost would sit on the edge between two of them. *)
let end_to_end ~seconds ~primes st =
  let samples = ref [] in
  cycles ~seconds st (fun p -> samples := timed st p :: !samples);
  let samples = List.rev !samples in
  let per_program q f =
    geomean
      (List.map
         (fun p ->
           List.filter (fun s -> s.prog = p.pname) samples
           |> List.map f |> quantile q)
         st.order)
  in
  let wall s = s.wall in
  ( samples,
    [
      ("norm_wall_ms_p50", "ms", per_program 0.5 normalised);
      ("norm_wall_ms_p75", "ms", per_program 0.75 normalised);
      ("setup_s", "s", median (List.map normalised primes) /. 1000.);
    ],
    [
      ("wall_ms_p50", per_program 0.5 wall);
      ("wall_ms_p75", per_program 0.75 wall);
      ( "reference_ms_p50",
        median (List.map (fun s -> (s.before +. s.after) /. 2.) samples) );
    ] )

(* --- the traced pass ------------------------------------------------------ *)

(* Layer rows: disjoint calls of the replayed invocation.  With
   process.unattributed.ms they sum to process.ms. *)
let layer_rows =
  [
    "compose.ms"; "frontend.ms"; "lower.ms"; "emit.ms"; "native.probe.ms";
    "native.cache_key.ms"; "native.compile.ms"; "native.run.ms"; "interp.run.ms";
  ]

(* Timed again after the replay, as separate calls; not summed. *)
let split_rows =
  [
    "compose.determinism.ms"; "compose.wellformed.ms"; "compose.lalr.ms";
    "compose.scanner.ms"; "frontend.parse.ms";
  ]

(* Counts that must repeat exactly between two samples of one program. *)
let count_rows =
  [
    "emit.c_bytes"; "lower.remarks_applied"; "lower.remarks_missed";
    "compose.lalr_states"; "interp.rc_allocs";
  ]

let per_layer =
  [
    ("compose.ms", "ms"); ("compose.determinism.ms", "ms");
    ("compose.wellformed.ms", "ms"); ("compose.lalr.ms", "ms");
    ("compose.scanner.ms", "ms"); ("compose.lalr_states", "count");
    ("frontend.ms", "ms"); ("frontend.parse.ms", "ms"); ("lower.ms", "ms");
    ("lower.remarks_applied", "count"); ("lower.remarks_missed", "count");
    ("emit.ms", "ms"); ("emit.c_bytes", "bytes"); ("native.probe.ms", "ms");
    ("native.cache_key.ms", "ms"); ("native.cache_hit_ratio", "ratio");
    ("native.compile.ms", "ms"); ("native.run.ms", "ms");
    ("native.live_nonzero", "count"); ("interp.run.ms", "ms");
    ("interp.rc_allocs", "count"); ("interp.rc_peak_mb", "MB");
    ("process.ms", "ms"); ("process.unattributed.ms", "ms");
    ("process.peak_rss_mb", "MB"); ("trace.overhead.ms", "ms");
  ]

(** One traced child replaying the invocation just made; its result must
    equal the CLI's. *)
let trace_one st p ~cli_result =
  let src = prepare st p in
  let argv =
    [|
      Sys.executable_name; "--trace-one"; st.w.cmd; string_of_int st.w.threads;
      st.data; st.cache; src;
    |]
  in
  let status, wall, out, err = spawn ~env:st.env ~dir:st.dir argv in
  st.attempted <- st.attempted + 1;
  let rows = Hashtbl.create 32 and result = ref None in
  List.iter
    (fun l ->
      match String.index_opt l ' ' with
      | Some i -> (
          let key = String.sub l 0 i
          and v = String.sub l (i + 1) (String.length l - i - 1) in
          if key = "result" then result := Some v
          else Option.iter (Hashtbl.replace rows key) (float_of_string_opt v))
      | None -> ())
    (String.split_on_char '\n' out);
  let problem =
    match status_error status with
    | Some e -> Some (e ^ ": " ^ String.trim err)
    | None when !result <> Some cli_result ->
        Some
          (Printf.sprintf "replay printed %S, the CLI %S"
             (Option.value !result ~default:"no result")
             cli_result)
    | None -> check_outputs st p
  in
  match problem with
  | Some m ->
      fail st (Printf.sprintf "%s %s (traced): %s" st.w.name p.pname m);
      None
  | None ->
      let get n = Option.value (Hashtbl.find_opt rows n) ~default:0. in
      Hashtbl.replace rows "process.ms" (wall -. get "trace.extra.ms");
      Some get

let traced ~seconds st =
  let samples = ref [] in
  cycles ~seconds st (fun p ->
      let wall, result = invoke st p in
      Option.iter
        (fun cli_result ->
          Option.iter
            (fun get -> samples := (p.pname, (wall, get)) :: !samples)
            (trace_one st p ~cli_result))
        result);
  let by_program =
    List.map
      (fun p ->
        ( p.pname,
          List.filter_map (fun (n, s) -> if n = p.pname then Some s else None) !samples ))
      st.order
  in
  List.iter
    (fun (pname, ss) ->
      match List.map snd ss with
      | first :: rest ->
          List.iter
            (fun n ->
              List.iter
                (fun g ->
                  if g n <> first n then
                    fail st
                      (Printf.sprintf "%s %s: count %s differs between samples \
                                       (%g vs %g)"
                         st.w.name pname n (first n) (g n)))
                rest)
            count_rows
      | [] -> ())
    by_program;
  let avg = function
    | [] -> 0.
    | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  (* Each program's mean, then the mean over programs: linear, so the
     layer rows and the remainder add up to process.ms exactly. *)
  let mean f =
    avg
      (List.filter_map
         (fun (_, ss) -> if ss = [] then None else Some (avg (List.map f ss)))
         by_program)
  in
  let row n = mean (fun (_, g) -> g n) in
  (* counts are per program: the workload's is their sum *)
  let total n =
    List.fold_left
      (fun acc (_, ss) -> match ss with (_, g) :: _ -> acc +. g n | [] -> acc)
      0. by_program
  in
  let process = row "process.ms" in
  let values =
    List.map (fun n -> (n, row n)) (layer_rows @ split_rows)
    @ List.map
        (fun n -> (n, total n))
        (List.filter (( <> ) "compose.lalr_states") count_rows)
    @ [
        ("compose.lalr_states", row "compose.lalr_states");
        ("native.cache_hit_ratio", row "native.cache_hit");
        ( "native.live_nonzero",
          if st.w.cmd <> "exec" then 0.
          else
            float_of_int
              (List.length
                 (List.filter
                    (fun (_, ss) -> List.exists (fun (_, g) -> g "live" <> 0.) ss)
                    by_program)) );
        ("interp.rc_peak_mb", row "interp.rc_peak_mb");
        ("process.ms", process);
        ( "process.unattributed.ms",
          process -. List.fold_left (fun acc n -> acc +. row n) 0. layer_rows );
        ("process.peak_rss_mb", row "process.peak_rss_mb");
        ("trace.overhead.ms", process -. mean fst);
      ]
  in
  ( List.length !samples,
    List.map (fun (n, u) -> (n, u, List.assoc n values)) per_layer,
    [ ("cli_wall_ms_mean", mean fst) ] )

(* --- reporting ------------------------------------------------------------ *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let json_obj = Support.Telemetry.json_obj
let json_str = Support.Telemetry.json_string

let result_json r =
  json_obj
    [
      ("correct", string_of_bool (r.r_failures = []));
      ("attempted", string_of_int (max 1 r.r_attempted));
      ("failed", string_of_int (List.length r.r_failures));
      ( "metrics",
        json_obj
          (List.map
             (fun (n, u, v) -> (n, json_obj [ ("value", json_num v); ("unit", json_str u) ]))
             r.r_metrics) );
    ]

let host_facts () =
  let dir = Filename.concat work_root (Printf.sprintf "host-%d" (Unix.getpid ())) in
  mkdir_p dir;
  let first_line argv =
    match spawn ~env:(Unix.environment ()) ~dir argv with
    | Unix.WEXITED 0, _, out, _ ->
        String.trim (List.hd (String.split_on_char '\n' out))
    | _ | (exception Unix.Unix_error _) -> "unknown"
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      json_obj
        [
          ("nproc", string_of_int (Domain.recommended_domain_count ()));
          ("cc", json_str (first_line [| "cc"; "--version" |]));
          ("ocaml", json_str Sys.ocaml_version);
          ("git_rev", json_str (first_line [| "git"; "rev-parse"; "HEAD" |]));
        ])

let print_report r =
  Printf.printf "%s: %d samples, %d attempted, %d failed\n" r.r_name r.r_count
    r.r_attempted (List.length r.r_failures);
  List.iter (fun (n, u, v) -> Printf.printf "  %-26s %14.3f %s\n" n v u) r.r_metrics;
  List.iter (fun (n, v) -> Printf.printf "  %-26s %14.3f ms (raw)\n" n v) r.r_info

let write_results ~seed ~seconds ~trace ~host r =
  let sample s =
    Printf.sprintf "[%s, %s, %s, %s]" (json_str s.prog) (json_num s.wall)
      (json_num s.before) (json_num s.after)
  in
  mkdir_p results_dir;
  write_file
    (Filename.concat results_dir
       (Printf.sprintf "%s-seed%d-trace%d.json" r.r_name seed (Bool.to_int trace)))
    (json_obj
       [
         ("workload", json_str r.r_name);
         ("seed", string_of_int seed);
         ("seconds", json_num seconds);
         ("trace", string_of_bool trace);
         ("count", string_of_int r.r_count);
         ("host", host);
         ("info", json_obj (List.map (fun (k, v) -> (k, json_num v)) r.r_info));
         ("result", result_json r);
         ( "sample_columns",
           "[\"program\", \"wall_ms\", \"reference_before_ms\", \"reference_after_ms\"]" );
         ("samples", "[" ^ String.concat ",\n  " (List.map sample r.r_samples) ^ "]");
       ]
    ^ "\n")

let usage () =
  prerr_endline
    "usage: mmcbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]\n\
    \       mmcbench --smoke\n\
     workloads: warm-exec, cold-edit, native-cube, interp-cube";
  exit 2

(* Primes three programs per workload on small inputs, then runs one again
   and replays it through the tracer: every check, no timing. *)
let smoke selected =
  let failures =
    List.concat_map
      (fun w ->
        let st, _ = setup ~seed:1 ~smoke:true w in
        Fun.protect
          ~finally:(fun () -> rm_rf st.dir)
          (fun () ->
            let p = List.hd st.order in
            Option.iter
              (fun cli_result -> ignore (trace_one st p ~cli_result))
              (snd (invoke st p));
            Printf.printf "mmcbench smoke: %-12s %d invocations, %d failed\n"
              w.name st.attempted (List.length st.failures);
            st.failures))
      selected
  in
  exit (if failures = [] then 0 else 1)

let main ~names ~seed ~seconds ~trace ~smoke:is_smoke =
  if not (Sys.file_exists mmc_exe && Sys.file_exists golden) then begin
    prerr_endline
      "mmcbench: run from the repository root after `dune build bin/mmc.exe`";
    exit 2
  end;
  let selected =
    if names = [] then workloads
    else
      List.map
        (fun n ->
          match List.find_opt (fun w -> w.name = n) workloads with
          | Some w -> w
          | None -> usage ())
        names
  in
  if is_smoke then smoke selected;
  let reports =
    List.map
      (fun w ->
        prerr_endline (Printf.sprintf "mmcbench: %s: setting up" w.name);
        let st, primes = setup ~seed ~smoke:false w in
        Fun.protect
          ~finally:(fun () -> rm_rf st.dir)
          (fun () ->
            prerr_endline (Printf.sprintf "mmcbench: %s: measuring" w.name);
            let count, samples, metrics, info =
              if trace then
                let n, metrics, info = traced ~seconds st in
                (n, [], metrics, info)
              else
                let samples, metrics, info = end_to_end ~seconds ~primes st in
                (List.length samples, samples, metrics, info)
            in
            {
              r_name = w.name;
              r_attempted = st.attempted;
              r_failures = List.rev st.failures;
              r_count = count;
              r_samples = samples;
              r_metrics = metrics;
              r_info = info;
            }))
      selected
  in
  let host = host_facts () in
  List.iter (write_results ~seed ~seconds ~trace ~host) reports;
  List.iter print_report reports;
  List.iter (fun r -> print_endline (result_json r)) reports

let () =
  match Array.to_list Sys.argv with
  | [ _; "--trace-one"; cmd; threads; data_dir; cache_dir; file ] ->
      Replay.run ~cmd ~threads:(int_of_string threads) ~data_dir ~cache_dir file
  | _ :: args ->
      let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
      let rec parse (names, seed, seconds, trace, smoke) = function
        | [] -> main ~names:(List.rev names) ~seed ~seconds ~trace ~smoke
        | "--workload" :: n :: rest ->
            parse (n :: names, seed, seconds, trace, smoke) rest
        | "--seed" :: s :: rest -> parse (names, int s, seconds, trace, smoke) rest
        | "--seconds" :: s :: rest ->
            parse (names, seed, float_of_int (int s), trace, smoke) rest
        | "--trace" :: (("0" | "1") as t) :: rest ->
            parse (names, seed, seconds, t = "1", smoke) rest
        | "--smoke" :: rest -> parse (names, seed, seconds, trace, true) rest
        | _ -> usage ()
      in
      parse ([], 1, 20., false, false) args
  | [] -> usage ()
