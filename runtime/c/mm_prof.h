/* mm_prof — native profiling instrumentation for the C that mmc emits
 * under --instrument.
 *
 * The emitter wraps provenance-carrying loops and statements in
 * enter/exit calls keyed by the program's span table (ids index the
 * generated mm_spans, which mm_init hands the runtime), mirroring the
 * reference interpreter's source-attributed profiler exactly:
 *   - a stack of open frames charges wall time per span; on exit the
 *     elapsed time goes to the span's total, the parent frame's child
 *     time grows by the same amount, and self = total - children;
 *   - a dispatching parallel loop (mm_prof_enter_par) installs a global
 *     region while OpenMP actually has > 1 thread: inside the region no
 *     new frames open, so the dispatching row's self time is the
 *     region's wall clock counted exactly once; per-thread busy time is
 *     still recorded via mm_prof_worker;
 *   - matrix allocation bytes (observed through mm_alloc_hook) are
 *     charged to the active region, else the innermost open frame.
 *
 * All calls are no-ops before mm_prof_init and after mm_prof_stop, so
 * instrumented C is also runnable without ever initialising the
 * profiler.  mm_prof_dump writes the aggregates as a JSON sidecar next
 * to the result protocol; mmc parses it back into the same report
 * `mmc profile` renders for interpreted runs.
 *
 * Overhead control: a span's timing freezes after its first 128 closes.
 * From then on the emitter-side guards below skip the enter/exit calls
 * entirely and count executions inline; mm_prof_stop extrapolates the
 * frozen spans' time from their measured per-close averages and
 * re-credits the enclosing span's self time, so a tiny span entered per
 * element of a hot loop costs a few loads per execution instead of two
 * clock readings. */
#ifndef MM_PROF_H
#define MM_PROF_H

/* Emitter-side fast-path state.  Generated code brackets sequential
 * probes as
 *   if (mm_prof_live && !mm_prof_skip[id]) mm_prof_enter(id);
 *   ...
 *   if (mm_prof_live) {
 *     if (!mm_prof_skip[id]) mm_prof_exit(id, n, 0);
 *     else { mm_prof_sentries[id]++; mm_prof_siters[id] += n; }
 *   }
 * mm_prof_live is 1 between init and stop while no parallel region is
 * dispatching (regions suppress nested probes); mm_prof_skip[id] flips
 * to 1 when span [id]'s timing freezes.  The arrays are owned by
 * mm_prof_init and only written single-threaded. */
extern volatile int mm_prof_live;
extern unsigned char *mm_prof_skip;
extern long long *mm_prof_sentries;
extern long long *mm_prof_siters;

/* Start profiling the spans of the table mm_init was handed.  Installs
 * mm_alloc_hook and starts the wall clock. */
void mm_prof_init(void);

/* Monotonic clock in nanoseconds (CLOCK_MONOTONIC). */
long long mm_prof_now(void);

/* Open / close a sequential frame for span [id].  exit closes down to
 * the matching open frame, healing frames leaked by early exits. */
void mm_prof_enter(int id);
void mm_prof_exit(int id, long long iters, int dispatches);

/* Open / close a parallel-dispatch frame: enter_par additionally
 * installs the worker-attribution region when OpenMP runs > 1 thread;
 * exit_par tears it down and records one dispatch iff it was opened. */
void mm_prof_enter_par(int id);
void mm_prof_exit_par(int id, long long iters);

/* Record [busy_ns] of the calling OpenMP thread against span [id];
 * no-op unless [id] is the active region. */
void mm_prof_worker(int id, long long busy_ns);

/* Freeze the wall clock, close any frames still open, stop recording. */
void mm_prof_stop(void);

/* Write the profile as JSON to [path] (best effort: silent on I/O
 * failure so a read-only working directory cannot break the program). */
void mm_prof_dump(const char *path);

#endif /* MM_PROF_H */
