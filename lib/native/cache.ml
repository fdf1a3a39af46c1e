(** Content-addressed cache of compiled native code, in one directory:

    - [mm_<key>.exe] — a program's binary, keyed by everything the user
      asked for: the emitted C text, the runtime sources, the compiler
      name, the user's flags, the sanitizer mode, instrumentation and
      the pass pipeline.  The key needs no compiler run, so re-running an
      unchanged program hits and runs no compiler at all.
    - [mm_runtime-<digest>.o] (and [mm_prof-<digest>.o] for instrumented
      builds) — the C runtime, compiled once per (runtime sources,
      compiler, full flag list) and linked into every program built with
      that configuration.

    Files land under a temporary name and are renamed into place, so
    processes sharing a cache directory never see a partial one.  Hits
    and misses are counted and exported as [cache.hit]/[cache.miss]
    telemetry gauges. *)

let default_dir = "_mmc_cache"

let hits = ref 0
let misses = ref 0
let hit_count () = !hits
let miss_count () = !misses

let reset_counts () =
  hits := 0;
  misses := 0

let export_gauges () =
  Support.Telemetry.set_gauge "cache.hit" (float_of_int !hits);
  Support.Telemetry.set_gauge "cache.miss" (float_of_int !misses)

(** [key ~toolchain ?instrument ?pipeline c_text] — hex digest naming
    the binary this exact (program, runtime, requested compiler
    configuration) compiles to.  Instrumented builds link the profiling
    runtime too, so the flag and the mm_prof sources join the digest: a
    profiled and an unprofiled run of the same program occupy distinct
    cache slots.  [pipeline] is the canonical pass-pipeline string the C
    was generated under; differently-configured pipelines never share a
    slot even if they happen to emit the same text today ([""], the
    default, keeps pre-pipeline digests valid).  The compiler's version
    and the probed OpenMP support are not part of the key: after a
    toolchain change, rebuild with [--no-cache]. *)
let key ~(toolchain : Toolchain.t) ?(instrument = false) ?(pipeline = "")
    (c_text : string) =
  let prof_part =
    if instrument then
      [ "instrument"; Runtime_c.prof_header; Runtime_c.prof_impl ]
    else []
  in
  let pipeline_part = if pipeline = "" then [] else [ "pipeline"; pipeline ] in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          ([ c_text; Runtime_c.header; Runtime_c.impl; toolchain.Toolchain.cc ]
          @ prof_part @ pipeline_part
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

let exe_path ~dir k = Filename.concat dir ("mm_" ^ k ^ ".exe")

(** [lookup ~dir k] — cached binary for key [k], bumping the hit/miss
    tally either way. *)
let lookup ~dir k =
  let path = exe_path ~dir k in
  if Sys.file_exists path then begin
    incr hits;
    export_gauges ();
    Some path
  end
  else begin
    incr misses;
    export_gauges ();
    None
  end

(* The runtime translation units: (file name, text) pairs. *)
let runtime_units ~instrument =
  ("mm_runtime.c", Runtime_c.impl)
  :: (if instrument then [ ("mm_prof.c", Runtime_c.prof_impl) ] else [])

(* A directory that cannot be made fails the first write into it. *)
let write_headers ~dir ~instrument =
  ignore (ensure_dir dir);
  write_file (Filename.concat dir "mm_runtime.h") Runtime_c.header;
  if instrument then
    write_file (Filename.concat dir "mm_prof.h") Runtime_c.prof_header

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
  c_file
  :: List.map
       (fun (name, text) ->
         let path = Filename.concat dir name in
         write_file path text;
         path)
       (runtime_units ~instrument)

(** [runtime_objects ~dir ~toolchain ~instrument ~rebuild] — the compiled
    runtime to link a program against, building each object that is
    missing (or every one, with [rebuild], which [--no-cache] sets: the
    way to replace an object damaged or built by another compiler).
    Traced as [native.runtime_object] when anything is built. *)
let runtime_objects ~dir ~(toolchain : Toolchain.t) ~instrument ~rebuild :
    (string list, Toolchain.error) result =
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            ([
               Runtime_c.header;
               Runtime_c.impl;
               Runtime_c.prof_header;
               Runtime_c.prof_impl;
               toolchain.Toolchain.cc;
             ]
            @ Toolchain.flags toolchain)))
  in
  let units =
    List.map
      (fun (name, text) ->
        let obj =
          Filename.concat dir
            (Filename.remove_extension name ^ "-" ^ digest ^ ".o")
        in
        (name, text, obj))
      (runtime_units ~instrument)
  in
  let stale =
    List.filter (fun (_, _, obj) -> rebuild || not (Sys.file_exists obj)) units
  in
  let objects = List.map (fun (_, _, obj) -> obj) units in
  if stale = [] then Ok objects
  else
    Support.Telemetry.with_span ~phase:"native" "native.runtime_object"
      (fun () ->
        write_headers ~dir ~instrument;
        List.fold_left
          (fun acc (name, text, obj) ->
            Result.bind acc (fun () ->
                let c_file = Filename.concat dir name in
                write_file c_file text;
                produce obj (fun out ->
                    Toolchain.compile_object toolchain ~c_file ~out)))
          (Ok ()) stale
        |> Result.map (fun () -> objects))
