(** Content-addressed cache of compiled native code, in one directory:

    - [mm_<key>.so] — a program, compiled into a shared object and keyed
      by everything the user asked for: the emitted C text, the runtime
      sources, the compiler name, the user's flags, the sanitizer mode,
      instrumentation and the pass pipeline.  The key needs no compiler
      run, so re-running an unchanged program hits and runs no compiler
      at all.
    - [mm_loader-<digest>] — the executable that runs those programs:
      the C runtime (with the profiling runtime for instrumented builds)
      and a [main] that loads the program given as its argument, linked
      once per (runtime sources, compiler, requested flags,
      instrumentation).

    Files land under a temporary name and are renamed into place, so
    processes sharing a cache directory never see a partial one.  Hits
    and misses are the [cache.hit]/[cache.miss] telemetry counters. *)

let default_dir = "_mmc_cache"
let c_hit = Support.Telemetry.counter "cache.hit"
let c_miss = Support.Telemetry.counter "cache.miss"

(* The runtime's files, as (name, text) pairs: the headers every program
   and runtime unit may include, then the translation units.  The
   profiling runtime joins them for instrumented builds. *)
let runtime_headers ~instrument =
  [ ("mm_runtime.h", Runtime_c.header); ("mm_simd.h", Runtime_c.simd_header) ]
  @ if instrument then [ ("mm_prof.h", Runtime_c.prof_header) ] else []

let runtime_units ~instrument =
  ("mm_runtime.c", Runtime_c.impl)
  :: (if instrument then [ ("mm_prof.c", Runtime_c.prof_impl) ] else [])

let runtime_texts ~instrument =
  List.map snd (runtime_headers ~instrument @ runtime_units ~instrument)

(* The loader's main: not a runtime unit, so a kept program still
   compiles standalone with one [main]. *)
let loader_unit = ("mm_loader.c", Runtime_c.loader)

(** [key ~toolchain ?instrument ~pipeline c_text] — hex digest naming
    the binary this exact (program, runtime, requested compiler
    configuration) compiles to.  Instrumented builds link the profiling
    runtime too, so the flag and the mm_prof sources join the digest: a
    profiled and an unprofiled run of the same program occupy distinct
    cache slots.  [pipeline] is the canonical pass-pipeline string the C
    was generated under; differently-configured pipelines never share a
    slot even if they happen to emit the same text today.  The
    compiler's version and whether [-fopenmp] works are not part of the
    key: after a toolchain change, rebuild with [--no-cache]. *)
let key ~(toolchain : Toolchain.t) ?(instrument = false) ~pipeline
    (c_text : string) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          ([ c_text; toolchain.Toolchain.cc ]
          @ (if instrument then [ "instrument" ] else [])
          @ runtime_texts ~instrument
          @ [ "pipeline"; pipeline ]
          @ Toolchain.requested_flags toolchain)))

(** [ensure_dir dir] — [dir] as a directory, created with its parents if
    missing; [Error reason] when it names something else or cannot be
    created. *)
let rec ensure_dir dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok () else Error (dir ^ " is not a directory")
  else
    Result.bind (ensure_dir (Filename.dirname dir)) (fun () ->
        match Sys.mkdir dir 0o755 with
        | () -> Ok ()
        | exception Sys_error _ when Sys.file_exists dir -> Ok ()
        | exception Sys_error m -> Error m)

(* A fresh file next to [path], to be renamed into place. *)
let temp_beside path =
  Filename.temp_file
    ~temp_dir:(Filename.dirname path)
    (Filename.basename path) ".tmp"

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

let write_file path text =
  let tmp = temp_beside path in
  Out_channel.with_open_text tmp (fun oc -> Out_channel.output_string oc text);
  Sys.rename tmp path

(** [produce path f] — run [f tmp] to create the file [path] under a
    temporary name, and rename it into place iff [f] succeeds. *)
let produce path f =
  let tmp = temp_beside path in
  match f tmp with
  | Ok () ->
      Sys.rename tmp path;
      Ok ()
  | Error _ as e ->
      remove_quietly tmp;
      e

(** [so_path ~dir k] — the shared object of the program with key [k]. *)
let so_path ~dir k = Filename.concat dir ("mm_" ^ k ^ ".so")

(** [exe_path ~dir k] — where mmcbench's traced replay writes a
    standalone build of the program with key [k]; [mmc] never reads
    it. *)
let exe_path ~dir k = Filename.concat dir ("mm_" ^ k ^ ".exe")

(** [lookup ~dir k] — the cached shared object for key [k], counted as
    a hit or a miss. *)
let lookup ~dir k =
  let path = so_path ~dir k in
  if Sys.file_exists path then begin
    Support.Telemetry.bump c_hit;
    Some path
  end
  else begin
    Support.Telemetry.bump c_miss;
    None
  end

(* A directory that cannot be made fails the first write into it. *)
let write_all ~dir files =
  ignore (ensure_dir dir);
  List.map
    (fun (name, text) ->
      let path = Filename.concat dir name in
      write_file path text;
      path)
    files

let write_headers ~dir ~instrument =
  ignore (write_all ~dir (runtime_headers ~instrument))

(** [write_runtime ~dir ~instrument] — materialise every runtime header
    and translation unit in [dir]; returns the .c files, which a
    standalone compile of a program takes after the program's own. *)
let write_runtime ~dir ~instrument =
  write_headers ~dir ~instrument;
  write_all ~dir (runtime_units ~instrument)

(** Materialise the program's translation unit and the runtime headers
    it includes (the cache directory is also the build directory, so a
    failed compile leaves the offending .c behind for inspection).
    Returns the program's .c file. *)
let write_program ~dir ~k ?(instrument = false) c_text =
  write_headers ~dir ~instrument;
  let c_file = Filename.concat dir ("mm_" ^ k ^ ".c") in
  write_file c_file c_text;
  c_file

(** Materialise the program and all runtime sources: the .c files a
    standalone compile of the program takes, program first. *)
let write_sources ~dir ~k ?(instrument = false) c_text =
  let c_file = write_program ~dir ~k ~instrument c_text in
  c_file :: write_runtime ~dir ~instrument

(** [loader_path ~dir ~toolchain ~instrument] — the loader of this
    configuration.  Like {!key}, its name digests the requested flags,
    not the probed ones, so a hit finds it without the probe. *)
let loader_path ~dir ~(toolchain : Toolchain.t) ~instrument =
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            ((toolchain.Toolchain.cc :: snd loader_unit
             :: runtime_texts ~instrument)
            @ Toolchain.requested_flags toolchain)))
  in
  Filename.concat dir ("mm_loader-" ^ digest)

(** [loader ~dir ~toolchain ~instrument ~rebuild] — the loader to run a
    program with, built when it is missing (or rebuilt, with [rebuild],
    which [--no-cache] sets: the way to replace a loader damaged or
    built by another compiler).  Traced as [native.runtime_object] when
    it is built. *)
let loader ~dir ~(toolchain : Toolchain.t) ~instrument ~rebuild :
    (string, Toolchain.error) result =
  let path = loader_path ~dir ~toolchain ~instrument in
  if Sys.file_exists path && not rebuild then Ok path
  else
    Support.Telemetry.with_span ~phase:"native" "native.runtime_object"
      (fun () ->
        let c_files =
          write_runtime ~dir ~instrument @ write_all ~dir [ loader_unit ]
        in
        produce path (fun out ->
            Toolchain.compile_loader toolchain ~c_files ~out)
        |> Result.map (fun () -> path))
