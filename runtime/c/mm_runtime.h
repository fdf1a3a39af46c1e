/* mm_runtime — the flat-buffer matrix runtime backing the C code that
 * mmc emits (§II: "translate it down to plain C code, which can then be
 * compiled for execution by a traditional compiler").
 *
 * Semantics mirror the reference interpreter exactly so `mmc exec` is
 * bit-identical to `mmc run`:
 *   - mm_float is double: the interpreter evaluates float expressions in
 *     IEEE double precision.
 *   - SSE lanes are genuine 32-bit floats (mm_simd.h, included only by
 *     programs with vector code).
 *   - readMatrix/writeMatrix speak the interpreter's MMAT2 container
 *     byte-for-byte: a big-endian header (magic, kind byte, rank,
 *     extents), then the raw little-endian payload — floats as their
 *     IEEE-754 binary64 bits, ints as int64 (narrowed to int on read),
 *     bools as one 0/1 byte.  The runtime builds only on little-endian
 *     hosts.
 */
#ifndef MM_RUNTIME_H
#define MM_RUNTIME_H

#include <stdbool.h>
#include <stddef.h>

typedef double mm_float;

#define MM_MAX_RANK 16

/* Element kinds, matching the MMAT2 container's kind byte. */
#define MM_KIND_FLOAT 'f'
#define MM_KIND_INT 'i'
#define MM_KIND_BOOL 'b'

/* All three matrix structs share a layout prefix (rc, kind, rank, elems,
 * dims) so mm_rc_inc/mm_rc_dec/mm_size/mm_write_matrix can take any of
 * them through void *. */
#define MM_MAT_HEADER                                                         \
  int rc;                                                                     \
  int kind;                                                                   \
  int rank;                                                                   \
  int elems;                                                                  \
  int dims[MM_MAX_RANK]

typedef struct {
  MM_MAT_HEADER;
  mm_float *data;
} mm_mat_float;

typedef struct {
  MM_MAT_HEADER;
  int *data;
} mm_mat_int;

typedef struct {
  MM_MAT_HEADER;
  bool *data;
} mm_mat_bool;

/* The emitter names matrix types by element and static rank
 * (mm_mat_float3, mm_mat_int1, ...); the rank is carried in the type
 * name only, so each is an alias of the per-element struct. */
typedef mm_mat_float mm_mat_float1, mm_mat_float2, mm_mat_float3,
    mm_mat_float4, mm_mat_float5, mm_mat_float6, mm_mat_float7, mm_mat_float8;
typedef mm_mat_int mm_mat_int1, mm_mat_int2, mm_mat_int3, mm_mat_int4,
    mm_mat_int5, mm_mat_int6, mm_mat_int7, mm_mat_int8;
typedef mm_mat_bool mm_mat_bool1, mm_mat_bool2, mm_mat_bool3, mm_mat_bool4,
    mm_mat_bool5, mm_mat_bool6, mm_mat_bool7, mm_mat_bool8;

/* Allocation (zero-initialised, refcount 1) and reference counting.
 * mm_rc_dec frees buffer and header when the count reaches zero, and
 * faults on a count that was already zero; both tolerate NULL so
 * generated cleanup code needs no tests. */
mm_mat_float *mm_alloc_float(int rank, ...);
mm_mat_int *mm_alloc_int(int rank, ...);
mm_mat_bool *mm_alloc_bool(int rank, ...);
void mm_rc_inc(void *m);
void mm_rc_dec(void *m);
int mm_size(const void *m);
int mm_live_count(void);

/* Payload-byte accounting, mirroring the interpreter's RC registry
 * gauges: bytes currently live, the high-water mark, and the cumulative
 * total ever allocated.  The counts are exact at any thread count; read
 * them after the parallel work.  mm_alloc_hook, when non-NULL, observes
 * every payload allocation (the native profiler points it at its
 * per-span attribution); it may be called from inside OpenMP regions.
 * The high-water mark covers only what happens while the hook is set,
 * so install it before the program allocates. */
long long mm_live_bytes(void);
long long mm_peak_bytes(void);
long long mm_allocated_bytes(void);
extern void (*mm_alloc_hook)(long long bytes);

/* MMAT2 container I/O (readMatrix/writeMatrix builtins).  Paths resolve
 * like the interpreter's virtual filesystem: '/' and '\' map to '_',
 * relative to the current working directory.  A file whose size differs
 * from what its header implies, or whose bool payload holds a byte other
 * than 0 or 1, is rejected through mm_fatal. */
void *mm_read_matrix(const char *path);
void mm_write_matrix(const char *path, const void *m);

/* Abort with an "mm_runtime: ..." diagnostic on stderr and exit code 70
 * (the runtime-failure exit the mmc driver maps back to a diagnostic). */
void mm_fatal(const char *fmt, ...);

/* Result protocol: the generated main prints the entry function's result
 * as "__mm_result ..." lines that `mmc exec` parses back into the same
 * value the interpreter would return, then a final "__mm_live N" line
 * with the allocations still live (the interpreter warns on the same
 * number). */
void mm_result_int(int v);
void mm_result_float(mm_float v);
void mm_result_bool(bool v);
void mm_result_void(void);
void mm_result_null(void);
void mm_result_tuple(int fields);
void mm_result_mat(const void *m);
void mm_result_live(void);

/* --- checks and supervised execution -----------------------------------
 * The checks lowering wrote into every program, MM_FAILPOINTS fault
 * injection, and the crash-breadcrumb sidecar the mmc supervisor uses to
 * triage signal deaths back to source spans.
 *
 * A failed check or an injected fault reports through one structured
 * protocol line on stdout before dying:
 *   __mm_fault <span_id> <span|-> <message...>
 * A failed check _exit(71)s — deterministic, distinct from mm_fatal's
 * 70 — while injected failpoints abort() so they surface as a signal
 * death, which crash triage reports like any other. */

/* Hand the runtime the program's span table (the generated mm_spans:
 * ids index it, entries are "line:col-..." strings), install the
 * crash-breadcrumb signal handlers and arm failpoints from the
 * MM_FAILPOINTS environment variable ("name@K,…", each clause firing on
 * the K-th hit — the Support.Failpoint grammar; a malformed spec, or a
 * name other than native.alloc and native.io.read_matrix, is mm_fatal).
 * Called first thing by every generated exec harness. */
void mm_init(int nspans, const char *const *spans);

/* The table's size, and the span string of id [id] (NULL when there is
 * none). */
int mm_span_count(void);
const char *mm_span_name(int id);

/* Count one pass through failpoint [name]; prints __mm_fault, flushes,
 * and abort()s on the armed hit.  The disarmed fast path is one load of
 * the clause count. */
void mm_fail_hit(const char *name);

/* Report a failed check attributed to span [id] (-1 = no span) and
 * _exit(71).  Does not return; of threads failing at once, one
 * reports. */
_Noreturn void mm_guard_fault(int id, const char *fmt, ...);

/* Slow paths of the two checks, only ever called once the inline test
 * has failed: they word the report (the interpreter words the same
 * text) and fault.  _Noreturn, so the optimizer keeps the passing path
 * free of spills and can hoist bound loads across iterations. */
_Noreturn void mm_guard_index(const void *m, int dim, int index, int id);
_Noreturn void mm_guard_same(int a, int b, const char *what, int id);

/* A subscript's index check: [m] is not NULL and 0 <= [i] < its extent
 * in dimension [d].  A void expression, so a subscript sequences its
 * checks before its offset with the comma operator; the passing path is
 * inline — one unsigned compare the branch predictor learns at once. */
#define MM_BOUND(m, d, i, id)                                                 \
  (__builtin_expect(!(m) || (unsigned)(i) >= (unsigned)(m)->dims[d], 0)       \
       ? mm_guard_index((const void *)(m), (d), (i), (id))                    \
       : (void)0)

/* Two extents an operation needs to agree. */
#define MM_SAME(a, b, what, id)                                               \
  (__builtin_expect((a) != (b), 0) ? mm_guard_same((a), (b), (what), (id))   \
                                   : (void)0)

/* Crash breadcrumbs: emitted code brackets every provenance site —
 * loops and top-level located statements — with
 *   int hidden = mm_crumb_push(id);  ...  mm_crumb_pop(hidden);
 * so mm_crumb holds the innermost open site's span id (-1 outside every
 * site), and a fatal signal writes that span to mm_crash.txt: the
 * supervisor renders a caret even for SIGSEGV/SIGFPE deaths.  The crumb
 * is thread-local — each thread has its own, so sites inside parallel
 * regions are race-free and the handler (which runs on the faulting
 * thread) reads exactly that thread's innermost span.  A push is one
 * TLS load and store, a pop one store: cheap enough to sit in
 * per-element code paths, and to compile. */
extern _Thread_local int mm_crumb;

static inline int mm_crumb_push(int id) {
  int hidden = mm_crumb;
  mm_crumb = id;
  return hidden;
}

static inline void mm_crumb_pop(int hidden) { mm_crumb = hidden; }

/* Integer minimum (tile-boundary bounds from the transform extension). */
static inline int mm_min(int a, int b) { return a < b ? a : b; }

/* Cilk elision (§VIII future work): serial semantics, as the paper's
 * spawn sites are all joined by an implicit sync before use. */
#define cilk_spawn
#define cilk_sync ((void)0)

#endif /* MM_RUNTIME_H */
