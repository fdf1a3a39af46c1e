(** The enhanced fork-join execution model of §III-C, from SAC [14].

    A naive translation spawns and destroys threads around every parallel
    with-loop and "pays the price of creating and destroying threads each
    time".  Instead, the runtime spawns the necessary number of workers
    {i once} at program start and parks them in a spin lock; when the main
    thread reaches a parallel construct it "flips the condition that keeps
    the threads spinning, which releases all of them at once", each worker
    runs its share, passes through a {i stop barrier} and goes straight
    back to spinning; the main thread waits in the stop barrier until all
    workers are done.

    Workers are OCaml 5 domains (real parallelism).  The spin loops use
    [Domain.cpu_relax] with a sleep back-off so the model remains usable on
    machines with fewer cores than workers (such as 1-core CI containers —
    the spin never starves the worker that must make progress).

    {!naive_run} implements the fork-join-per-region model as the
    benchmark baseline the paper argues against.

    {2 Crash containment}

    A worker exception does not poison the pool.  {!run} collects
    {e every} thread's exception (not just the first): the first is
    re-raised at the stop barrier with its original backtrace, the rest
    are counted ([pool.suppressed_exns]).  In {!parallel_for} a chunk's
    exception ends that thread's share, so the region fails once.
    Nothing is re-run: a with-loop body may call a function that writes
    a matrix it was passed, so a second attempt would start from the
    state the first one left.  {!Limits} deadlines and byte caps are
    probed at every chunk boundary and take the same path, so the run
    aborts.  The pool stays usable after any exception. *)

type job = { fn : int -> int -> unit (* worker_index n_workers -> unit *) }

type t = {
  n_workers : int;  (** helper domains; the main thread also works *)
  generation : int Atomic.t;  (** bumped to release the spinners *)
  job : job option Atomic.t;
  done_count : int Atomic.t;
  shutdown : bool Atomic.t;
  in_region : bool Atomic.t;
      (** a region is currently executing; a nested [run] (e.g. a
          [parallel_for] issued from inside a worker's share) executes
          inline on the calling thread instead of corrupting the single
          job slot *)
  failures : (exn * Printexc.raw_backtrace) list Atomic.t;
      (** every exception raised by a thread's share of the current job
          (newest first), each with the raising thread's backtrace; the
          earliest is re-raised on the main thread at the stop barrier,
          the rest are counted as suppressed *)
  busy : Support.Telemetry.counter array;
      (** per-thread busy nanoseconds (slot 0 = main thread's share) *)
  mutable domains : unit Domain.t array;
}

(* Pool telemetry (§III-C observability).  Every probe is behind the
   telemetry enabled flag, so the disabled hot path pays one atomic load
   per region/wakeup — nothing per spin iteration. *)
let c_jobs = Support.Telemetry.counter "pool.jobs_dispatched"
let c_spin_wakeups = Support.Telemetry.counter "pool.wakeups_spin"
let c_sleep_wakeups = Support.Telemetry.counter "pool.wakeups_sleep"
let c_barrier_ns = Support.Telemetry.counter "pool.barrier_wait_ns"
let c_exceptions = Support.Telemetry.counter "pool.job_exceptions"
let c_chunks = Support.Telemetry.counter "pool.chunks_dispatched"
let c_nested = Support.Telemetry.counter "pool.nested_inline_runs"
let c_suppressed = Support.Telemetry.counter "pool.suppressed_exns"

(* Fault-injection sites (armed via mmc run --failpoints): a
   region dispatch on the calling thread, and a chunk execution inside a
   worker's share. *)
let fp_dispatch = Support.Failpoint.register "pool.dispatch"
let fp_worker_body = Support.Failpoint.register "pool.worker_body"

let rec push_atomic cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (x :: old)) then push_atomic cell x

(* Spin with progressive back-off: pure spinning briefly (the fast path the
   enhanced fork-join model is built for), then yield to the OS so
   oversubscribed machines still progress.  Returns whether the wait ever
   fell back to sleeping, so wakeups can be classified spin-vs-sleep. *)
let spin_until pred =
  let spins = ref 0 in
  let slept = ref false in
  while not (pred ()) do
    incr spins;
    if !spins < 1000 then Domain.cpu_relax ()
    else begin
      slept := true;
      Unix.sleepf 0.000_05
    end
  done;
  !slept

(* Execute one thread's share of a job.  Every exception is captured (not
   swallowed) and collected for the stop barrier, where the earliest is
   re-raised on the main thread; when telemetry is on, the share's
   wall-clock goes to the thread's busy counter. *)
let run_share pool idx fn =
  let n = pool.n_workers + 1 in
  let exec () =
    try fn idx n
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      Support.Telemetry.bump c_exceptions;
      push_atomic pool.failures (e, bt)
  in
  if Support.Telemetry.on () || Support.Profile.is_enabled () then begin
    let t0 = Support.Telemetry.now_ns () in
    exec ();
    let busy = Support.Telemetry.now_ns () - t0 in
    Support.Telemetry.add pool.busy.(idx) busy;
    (* Source attribution: charge this share's wall-clock to the ParFor
       region (if any) the profiler has open. *)
    if Support.Profile.is_enabled () then
      Support.Profile.worker_busy ~worker:idx busy
  end
  else exec ()

let worker_loop pool idx () =
  let my_gen = ref 0 in
  let running = ref true in
  while !running do
    let slept =
      spin_until (fun () ->
          Atomic.get pool.shutdown || Atomic.get pool.generation <> !my_gen)
    in
    if Atomic.get pool.shutdown then running := false
    else begin
      my_gen := Atomic.get pool.generation;
      if Support.Telemetry.on () then
        Support.Telemetry.bump
          (if slept then c_sleep_wakeups else c_spin_wakeups);
      (match Atomic.get pool.job with
      (* Worker indices 1..n; index 0 is the main thread's share. *)
      | Some { fn } -> run_share pool idx fn
      | None -> ());
      Atomic.incr pool.done_count
    end
  done

(** [create n] — a pool executing parallel regions on [n] threads total:
    the calling (main) thread plus [n-1] spawned worker domains, matching
    the paper's command-line thread-count argument. *)
let create n =
  if n < 1 then invalid_arg "Pool.create: need at least one thread";
  let pool =
    {
      n_workers = n - 1;
      generation = Atomic.make 0;
      job = Atomic.make None;
      done_count = Atomic.make 0;
      shutdown = Atomic.make false;
      in_region = Atomic.make false;
      failures = Atomic.make [];
      busy =
        Array.init n (fun i ->
            Support.Telemetry.counter (Printf.sprintf "pool.worker%d.busy_ns" i));
      domains = [||];
    }
  in
  pool.domains <-
    Array.init (n - 1) (fun i -> Domain.spawn (worker_loop pool (i + 1)));
  pool

let threads pool = pool.n_workers + 1

(** [run pool f] — one parallel region: every thread [t] of [n] executes
    [f t n]; returns when all have passed the stop barrier.  If any share
    raised, the first exception is re-raised here (after every worker has
    parked again, so the pool stays usable).

    Re-entrant: a [run] issued while a region is already executing (a
    [parallel_for] issued from inside a worker's share, such as a
    [ParFor] nested in another's body) executes its function inline as
    [f 0 1] — the outer region already owns all the threads, so nesting
    degenerates to sequential execution instead of deadlocking on the
    single job slot. *)
let run pool (fn : int -> int -> unit) =
  Support.Failpoint.hit fp_dispatch;
  if pool.n_workers = 0 then begin
    Support.Telemetry.bump c_jobs;
    fn 0 1
  end
  else if not (Atomic.compare_and_set pool.in_region false true) then begin
    Support.Telemetry.bump c_nested;
    fn 0 1
  end
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set pool.in_region false)
      (fun () ->
        Atomic.set pool.done_count 0;
        Atomic.set pool.job (Some { fn });
        Atomic.incr pool.generation;
        (* release *)
        Support.Telemetry.bump c_jobs;
        run_share pool 0 fn;
        (* main thread's share *)
        let wait () =
          ignore
            (spin_until (fun () ->
                 Atomic.get pool.done_count = pool.n_workers))
          (* stop barrier *)
        in
        if Support.Telemetry.on () then begin
          let t0 = Support.Telemetry.now_ns () in
          wait ();
          Support.Telemetry.add c_barrier_ns (Support.Telemetry.now_ns () - t0)
        end
        else wait ();
        (* Every worker has parked again, so the pool is reusable no
           matter what happens next.  The earliest exception re-raises
           with its original backtrace; later ones are counted, not
           lost silently. *)
        match List.rev (Atomic.exchange pool.failures []) with
        | [] -> ()
        | (e, bt) :: rest ->
            Support.Telemetry.add c_suppressed (List.length rest);
            Printexc.raise_with_backtrace e bt)

(** [parallel_for pool lo hi f] — apply [f] to every index in [lo, hi),
    in parallel, with guided chunking (§III-C): threads grab shrinking
    chunks of [remaining / 2n] indices (at least one) from a shared
    counter.  That costs one CAS per chunk but load-balances irregular
    iteration bodies (matrixMap over slices of varying work, conncomp
    frames with different eddy counts).  A single index runs inline on
    the calling thread without waking the pool.  An exception from [f]
    ends its thread's share and re-raises from [run] at the barrier. *)
let parallel_for pool lo hi f =
  let total = hi - lo in
  if total <= 0 then ()
  else if total = 1 then begin
    Support.Telemetry.bump c_chunks;
    Limits.check ();
    f lo
  end
  else begin
    let next = Atomic.make lo in
    run pool (fun _ n ->
        let continue = ref true in
        while !continue do
          let cur = Atomic.get next in
          if cur >= hi then continue := false
          else
            let size = max 1 ((hi - cur) / (2 * n)) in
            if Atomic.compare_and_set next cur (cur + size) then begin
              Support.Telemetry.bump c_chunks;
              Limits.check ();
              Support.Failpoint.hit fp_worker_body;
              for i = cur to cur + size - 1 do
                f i
              done
            end
        done)
  end

(** Park the workers permanently and join their domains. *)
let shutdown pool =
  if pool.n_workers > 0 then begin
    Atomic.set pool.shutdown true;
    Array.iter Domain.join pool.domains
  end

(** [with_pool n f] — create, use, always shut down. *)
let with_pool n f =
  let pool = create n in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(** The naive fork-join baseline (§III-C): spawn [n-1] fresh domains for
    the region, join them, destroy them.  Benchmarked against {!run} in
    the [forkjoin] bench group. *)
let naive_run n (fn : int -> int -> unit) =
  if n <= 1 then fn 0 1
  else begin
    let ds = Array.init (n - 1) (fun i -> Domain.spawn (fun () -> fn (i + 1) n)) in
    fn 0 n;
    Array.iter Domain.join ds
  end

(** Spawn-per-region counterpart of {!parallel_for}.  Kept deliberately:
    it is the baseline the C5 benchmark group measures {!run} against
    (and [bench --smoke] exercises it so it cannot bit-rot). *)
let naive_parallel_for n lo hi f =
  let total = hi - lo in
  if total > 0 then
    naive_run n (fun t n ->
        let chunk = (total + n - 1) / n in
        let start = lo + (t * chunk) in
        let stop = min hi (start + chunk) in
        for i = start to stop - 1 do
          f i
        done)
