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
    - the stub then reaps the child with one blocking [waitpid] and
      decodes the POSIX wait status itself, so the status distinguishes
      exit codes from signal deaths with the POSIX signal number and
      name (OCaml renumbers signals), callers can render "killed by
      SIGSEGV" instead of a misleading exit code, and a SIGALRM death
      under a deadline is the deadline's. *)

(* Built by the spawn stub: keep the constructors in this order. *)
type status =
  | Exited of int
  | Signaled of { signal : int; name : string }
      (** POSIX signal number and conventional name ("SIGQUIT", or
          "signal N" where the C library cannot name it) *)
  | Timed_out of { after_s : float }
      (** the wall-clock deadline passed and the child's timer killed it *)

external spawn_wait :
  exe:string ->
  arg:string ->
  dir:string ->
  stdout_file:string ->
  stderr_file:string ->
  envp:string array ->
  max_bytes:int64 ->
  timeout_s:float ->
  status = "mmc_spawn_wait_bytecode" "mmc_spawn_wait_native"

(* Address-space headroom over the payload cap: the C runtime, libc and
   OpenMP need real memory of their own, and the cap exists to stop
   runaways, not to meter allocations byte-exactly (the interpreter's
   ledger does that). *)
let as_headroom = 64 * 1024 * 1024

(** [run ?env ?timeout_s ?max_bytes ~dir ~stdout_file ~stderr_file ~arg
    exe] executes [exe] with the one argument [arg], cwd [dir] and the
    calling environment extended (entry-wise overridden) by [env].  A
    [timeout_s] of zero or less kills it at once.  Blocks until the
    child is dead and reaped. *)
let run ?(env = []) ?timeout_s ?max_bytes ~dir ~stdout_file ~stderr_file ~arg
    exe =
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
  spawn_wait ~exe ~arg ~dir ~stdout_file ~stderr_file ~envp
    ~max_bytes:
      (match max_bytes with
      | Some b -> Int64.of_int (b + as_headroom)
      | None -> -1L)
    ~timeout_s:
      (match timeout_s with
      | Some t -> if t > 0. then t else 0. (* the stub's -1 is "none" *)
      | None -> -1.)
