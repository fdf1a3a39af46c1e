(** System C toolchain discovery and compilation for [mmc exec] (§II: the
    emitted plain parallel C is "compiled for execution by a traditional
    compiler").

    A toolchain is what the user asked for — compiler name, extra flags,
    sanitizer mode — plus a lazily run probe: is there a working
    compiler at all, and do parallel loops get real OpenMP threads or do
    the pragmas fall back to sequential execution?  Compiles come first:
    {!compile_first} builds with [-fopenmp] straight away and forces the
    probe only when that fails, so a build that works runs no probe and
    a binary-cache hit runs no compiler at all.  The probe is memoised
    per configuration for the process lifetime, so test suites that
    compile many programs pay for it once. *)

type error =
  | No_compiler of { cc : string; detail : string }
      (** no working C compiler under this name *)
  | Compile_failed of { cmd : string; output : string }
      (** the generated program failed to compile — an emitter bug *)
  | Sanitizer_unsupported of { cc : string; sanitize : string }
      (** the compiler exists but rejects [-fsanitize=<mode>] *)

type t = {
  cc : string;  (** compiler command, e.g. ["cc"] *)
  cflags : string list;  (** extra user flags, after the defaults *)
  sanitize : string option;
      (** [-fsanitize=] mode ("address" / "undefined"), if any *)
  probed : (bool, error) result Lazy.t;
      (** the probe's verdict — whether [-fopenmp] works, or why the
          toolchain is unusable; forced by a failed compile or by
          {!probe} *)
}

let describe_error = function
  | No_compiler { cc; detail } ->
      Printf.sprintf "no working C compiler %S (%s)" cc detail
  | Compile_failed { cmd; output } ->
      Printf.sprintf "C compilation failed: %s\n%s" cmd (String.trim output)
  | Sanitizer_unsupported { cc; sanitize } ->
      Printf.sprintf "%s does not support -fsanitize=%s" cc sanitize

let default_cc () =
  match Sys.getenv_opt "MMC_CC" with Some c when c <> "" -> c | _ -> "cc"

(* Run [cmd], capturing stdout+stderr; returns (exit code, output). *)
let run_command cmd =
  let out = Filename.temp_file "mmc_cc" ".out" in
  let code = Sys.command (Printf.sprintf "%s > %s 2>&1" cmd (Filename.quote out)) in
  let text = In_channel.with_open_bin out In_channel.input_all in
  (try Sys.remove out with Sys_error _ -> ());
  (code, text)

let quote = Filename.quote

(* --- probing ---------------------------------------------------------- *)

let try_compile ~cc ~flags ~src_text =
  let dir = Filename.temp_file "mmc_probe" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let src = Filename.concat dir "probe.c" in
  let exe = Filename.concat dir "probe.exe" in
  Out_channel.with_open_text src (fun oc ->
      Out_channel.output_string oc src_text);
  let cmd =
    Printf.sprintf "%s %s -o %s %s" cc
      (String.concat " " (List.map quote flags))
      (quote exe) (quote src)
  in
  let code, output = run_command cmd in
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ src; exe ];
  (try Sys.rmdir dir with Sys_error _ -> ());
  if code = 0 then Ok () else Error (cmd, output)

(* [-fsanitize] builds also want frame pointers and debug info so the
   sanitizer's reports carry usable stacks. *)
let sanitize_flags = function
  | None -> []
  | Some s -> [ "-fsanitize=" ^ s; "-fno-omit-frame-pointer"; "-g" ]

(* The probe proper: OpenMP first, since a working [-fopenmp] compile
   also proves the compiler works; only when it fails does a plain
   compile tell "no OpenMP" from "no compiler".  A sanitizer mode is
   checked on its own compile. *)
let run_probe ~cc ~cflags ~sanitize : (bool, error) result =
  let trivial = "int main(void) { return 0; }\n" in
  let compiles flags = try_compile ~cc ~flags ~src_text:trivial in
  let openmp =
    match compiles ("-fopenmp" :: cflags) with
    | Ok () -> Ok true
    | Error _ -> (
        match compiles cflags with
        | Ok () -> Ok false
        | Error (_, output) ->
            Error
              (No_compiler
                 {
                   cc;
                   detail =
                     (match String.trim output with
                     | "" -> "command failed"
                     | s ->
                         (* first line is enough: "cc: command not found" *)
                         (match String.index_opt s '\n' with
                         | Some i -> String.sub s 0 i
                         | None -> s));
                 }))
  in
  match (openmp, sanitize) with
  | Ok _, Some s when compiles (sanitize_flags sanitize @ cflags) <> Ok () ->
      Error (Sanitizer_unsupported { cc; sanitize = s })
  | r, _ -> r

let probe_cache : (string, (bool, error) result Lazy.t) Hashtbl.t =
  Hashtbl.create 4

(** [configure ?cc ?cflags ?sanitize ()] — the toolchain for this
    configuration, its probe not yet run. *)
let configure ?cc ?(cflags = []) ?sanitize () : t =
  let cc = match cc with Some c when c <> "" -> c | _ -> default_cc () in
  let key =
    cc ^ "\x00"
    ^ String.concat "\x00" cflags
    ^ "\x01"
    ^ Option.value sanitize ~default:""
  in
  let probed =
    match Hashtbl.find_opt probe_cache key with
    | Some p -> p
    | None ->
        let p = lazy (run_probe ~cc ~cflags ~sanitize) in
        Hashtbl.replace probe_cache key p;
        p
  in
  { cc; cflags; sanitize; probed }

(* The probe's verdict, running it unless this process already has;
   traced as [native.probe] when it actually runs a compiler. *)
let verdict t =
  if Lazy.is_val t.probed then Lazy.force t.probed
  else
    Support.Telemetry.with_span ~phase:"native" "native.probe" (fun () ->
        Lazy.force t.probed)

(** [probe ?cc ?cflags ?sanitize ()] — {!configure} and run the probe
    at once: locate a working compiler, decide whether OpenMP is
    available under it, and (when [sanitize] is given) verify the
    compiler links [-fsanitize=<mode>] programs. *)
let probe ?cc ?cflags ?sanitize () : (t, error) result =
  let t = configure ?cc ?cflags ?sanitize () in
  Result.map (fun _ -> t) (verdict t)

(** Whether {!flags} passes [-fopenmp], so ParFor pragmas are live: a
    compile tries it until the probe has found that it fails.  After a
    compile that worked, or after {!probe}, this is whether the binary
    gets real OpenMP threads. *)
let uses_openmp t = not (Lazy.is_val t.probed && Lazy.force t.probed = Ok false)

(* [-ffp-contract=off]: the interpreter rounds every float operation on
   its own, so [x * m + b] must not become one fused multiply-add where
   the target has one ([-march=native]). *)
let base_flags t =
  [ "-O2"; "-Wall"; "-ffp-contract=off" ] @ sanitize_flags t.sanitize

(** The flags the user asked for: everything in {!flags} but the
    probed OpenMP choice.  The binary-cache key digests these, so it can
    be computed without running the compiler. *)
let requested_flags t = base_flags t @ t.cflags

(** The flags a toolchain compiles generated programs with now, in
    command order: [-fopenmp] unless the probe found that it fails.
    Without OpenMP the pragmas are dead text, so the unknown-pragma
    warning is silenced to stay clean under [-Wall].  Sanitizer flags
    participate, which also gives sanitized builds their own
    binary-cache slot. *)
let flags t =
  base_flags t
  @ (if uses_openmp t then [ "-fopenmp" ] else [ "-Wno-unknown-pragmas" ])
  @ t.cflags

(* Run [cc flags extra...], returning the full command on failure so
   the driver's diagnostic shows exactly what was attempted. *)
let run_cc t extra =
  let cmd = String.concat " " ((t.cc :: List.map quote (flags t)) @ extra) in
  let code, output = run_command cmd in
  if code = 0 then Ok () else Error (Compile_failed { cmd; output })

(** [compile t ~c_files ~out] — compile and link [c_files] into the
    executable [out]. *)
let compile t ~c_files ~out : (unit, error) result =
  run_cc t ("-o" :: quote out :: List.map quote c_files)

(** [compile_loader t ~c_files ~out] — {!compile} a loader: the
    executable exports its symbols ([-rdynamic]) to the programs it
    [dlopen]s. *)
let compile_loader t ~c_files ~out : (unit, error) result =
  run_cc t
    (("-rdynamic" :: "-o" :: quote out :: List.map quote c_files) @ [ "-ldl" ])

(** [compile_shared t ~c_file ~out] — compile one program into the
    shared object [out], linking no library: a loader binds its
    references when it loads it.  [-fno-semantic-interposition] keeps
    the calls between the program's own functions direct and
    inlinable, as in an executable. *)
let compile_shared t ~c_file ~out : (unit, error) result =
  run_cc t
    [
      "-fPIC"; "-shared"; "-nostdlib"; "-fno-semantic-interposition"; "-o";
      quote out; quote c_file;
    ]

(** [compile_first t build] — run the compile steps [build] (which read
    {!flags}) and return what they return when they work.  Only a
    failure runs the probe, and its verdict picks the outcome: without
    a working [-fopenmp], [build] runs once more under the no-OpenMP
    flags; without a usable compiler or sanitizer, the probe's
    diagnosis replaces the compile error; with a healthy toolchain the
    compile error itself is the answer. *)
let compile_first t (build : unit -> ('a, error) result) : ('a, error) result
    =
  match build () with
  | Ok _ as built -> built
  | Error _ as failed -> (
      let tried_openmp = uses_openmp t in
      match verdict t with
      | Ok false when tried_openmp -> build ()
      | Ok _ -> failed
      | Error e -> Error e)
