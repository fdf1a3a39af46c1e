(** Supervised execution of compiled mm programs.

    Replaces the bare [Sys.command] run leg with fork/exec under a
    parent-side supervisor:

    - the child (spawned by a C stub — OCaml 5 forbids [Unix.fork] once
      the worker pool's domains exist) chdirs into the data directory,
      redirects stdout/stderr to files, applies a [setrlimit]
      address-space cap derived from [--max-bytes], arms an
      [ITIMER_REAL] timer for the [--timeout] deadline, and execs —
      interval timers survive [execve], so the deadline is enforced
      inside the child, whose SIGALRM kills it;
    - the parent reaps the child with one blocking [waitpid];
    - the decoded status distinguishes exit codes from signal deaths,
      with the POSIX signal number and name (OCaml's [Sys.sig*] values
      are internal negatives), so callers can render "killed by SIGSEGV"
      instead of a misleading exit code, and a SIGALRM death under a
      deadline is the deadline's. *)

type status =
  | Exited of int
  | Signaled of { signal : int; name : string }
      (** POSIX signal number and conventional name *)
  | Timed_out of { after_s : float }
      (** the wall-clock deadline passed and the child's timer killed it *)

external spawn :
  exe:string ->
  dir:string ->
  stdout_file:string ->
  stderr_file:string ->
  envp:string array ->
  max_bytes:int64 ->
  timeout_s:float ->
  int = "mmc_spawn_bytecode" "mmc_spawn_native"

(* OCaml signal numbers are runtime-internal (negative); map the ones a
   supervised run can die by to their POSIX identity. *)
let signal_info s =
  if s = Sys.sigsegv then (11, "SIGSEGV")
  else if s = Sys.sigabrt then (6, "SIGABRT")
  else if s = Sys.sigfpe then (8, "SIGFPE")
  else if s = Sys.sigkill then (9, "SIGKILL")
  else if s = Sys.sigterm then (15, "SIGTERM")
  else if s = Sys.sigill then (4, "SIGILL")
  else if s = Sys.sigbus then (7, "SIGBUS")
  else if s = Sys.sigxcpu then (24, "SIGXCPU")
  else if s = Sys.sigint then (2, "SIGINT")
  else if s = Sys.sigpipe then (13, "SIGPIPE")
  else (abs s, Printf.sprintf "signal %d" (abs s))

(* Address-space headroom over the payload cap: the C runtime, libc and
   OpenMP need real memory of their own, and the cap exists to stop
   runaways, not to meter allocations byte-exactly (the interpreter's
   ledger does that). *)
let as_headroom = 64 * 1024 * 1024

(** [run ?env ?timeout_s ?max_bytes ~dir ~stdout_file ~stderr_file exe]
    executes [exe] with cwd [dir] and the calling environment extended
    (entry-wise overridden) by [env].  A [timeout_s] of zero or less
    kills it at once.  Blocks until the child is dead and reaped. *)
let run ?(env = []) ?timeout_s ?max_bytes ~dir ~stdout_file ~stderr_file exe =
  flush stdout;
  flush stderr;
  let overridden k = List.exists (fun (k', _) -> String.equal k k') env in
  let keep e =
    match String.index_opt e '=' with
    | Some i -> not (overridden (String.sub e 0 i))
    | None -> true
  in
  let envp =
    Array.append
      (Array.of_list
         (List.filter keep (Array.to_list (Unix.environment ()))))
      (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) env))
  in
  let pid =
    spawn ~exe ~dir ~stdout_file ~stderr_file ~envp
      ~max_bytes:
        (match max_bytes with
        | Some b -> Int64.of_int (b + as_headroom)
        | None -> -1L)
      ~timeout_s:
        (match timeout_s with
        | Some t -> if t > 0. then t else 0. (* the stub's -1 is "none" *)
        | None -> -1.)
  in
  let rec reap () =
    match Unix.waitpid [] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | _, Unix.WEXITED c -> Exited c
    | _, Unix.WSIGNALED s -> (
        match timeout_s with
        | Some after_s when s = Sys.sigalrm -> Timed_out { after_s }
        | _ ->
            let signal, name = signal_info s in
            Signaled { signal; name })
    | _, Unix.WSTOPPED _ ->
        (* not reported without WUNTRACED *)
        reap ()
  in
  reap ()
