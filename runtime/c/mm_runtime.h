/* mm_runtime — the flat-buffer matrix runtime backing the C code that
 * mmc emits (§II: "translate it down to plain C code, which can then be
 * compiled for execution by a traditional compiler").
 *
 * Semantics mirror the reference interpreter exactly so `mmc exec` is
 * bit-identical to `mmc run`:
 *   - mm_float is double: the interpreter evaluates float expressions in
 *     IEEE double precision.
 *   - SSE lanes are genuine 32-bit floats: the interpreter rounds every
 *     vector load/op/store through single precision, and the horizontal
 *     sum accumulates the four lanes in double, in lane order.
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
 * mm_rc_dec frees buffer and header when the count reaches zero; both
 * tolerate NULL so generated cleanup code needs no guards. */
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

/* --- supervised execution ----------------------------------------------
 * Runtime guards (--guards), MM_FAILPOINTS fault injection, and the
 * crash-breadcrumb sidecar the mmc supervisor uses to triage signal
 * deaths back to source spans.
 *
 * A guard trip or an injected fault reports through one structured
 * protocol line on stdout before dying:
 *   __mm_fault <span_id> <span|-> <message...>
 * Guard trips _exit(71) — deterministic, distinct from mm_fatal's 70 —
 * while injected failpoints abort() so they surface as a signal death,
 * which crash triage reports like any other. */

/* Arm failpoints from the MM_FAILPOINTS environment variable
 * ("name@K,name@P[:SEED]" — the Support.Failpoint grammar; a malformed
 * spec, or a name other than native.alloc and native.io.read_matrix, is
 * mm_fatal) and install the crash-breadcrumb signal handlers.  Called
 * first thing by every generated exec harness. */
void mm_fail_init(void);

/* Count one pass through failpoint [name]; prints __mm_fault, flushes,
 * and abort()s when the armed condition is met on this hit.  The
 * disarmed fast path is one load of the clause count. */
void mm_fail_hit(const char *name);

/* Enable runtime guards with the generated guard span table: emitted
 * subscripts go through MM_GUARD_IDX and mm_rc_dec checks for refcount
 * underflow. */
void mm_guard_init(int nspans, const char *const *spans);
extern int mm_guard_on;

/* Report a guard fault attributed to span [id] (-1 = no span) and
 * _exit(71).  Does not return. */
_Noreturn void mm_guard_fault(int id, const char *fmt, ...);

/* Slow path of MM_GUARD_IDX: diagnoses the NULL-matrix or
 * out-of-bounds cause and faults.  Only ever called once the inline
 * check has failed; _Noreturn so the optimizer keeps the passing path
 * free of spills and can hoist bound loads across iterations. */
_Noreturn void mm_guard_check(const void *m, int off, int id);

/* Crash breadcrumbs: emitted code pushes the innermost provenance span
 * id around located statements and loops; a fatal signal writes the
 * innermost resolvable span to mm_crash.txt so the supervisor can
 * render a caret even for SIGSEGV/SIGFPE deaths.  The stack is
 * thread-local — every thread keeps its own trail, so pushes inside
 * parallel regions are race-free and the handler (which runs on the
 * faulting thread) reads exactly that thread's innermost span — and
 * push/pop are inline macros: a TLS load, a compare and a store, cheap
 * enough to sit in per-element code paths.  Depth keeps counting past
 * MM_CRUMB_MAX so deep nests stay balanced; only the ids below the cap
 * are recorded. */
#define MM_CRUMB_MAX 64
extern _Thread_local int mm_crumb_stack[MM_CRUMB_MAX];
extern _Thread_local int mm_crumb_depth;
#define mm_crumb_push(id)                                                     \
  ((void)((mm_crumb_depth < MM_CRUMB_MAX                                      \
               ? (void)(mm_crumb_stack[mm_crumb_depth] = (id))                \
               : (void)0),                                                    \
          mm_crumb_depth++))
#define mm_crumb_pop() ((void)(mm_crumb_depth > 0 ? mm_crumb_depth-- : 0))

/* Optional override consulted first by the crash handler (must be
 * async-signal-safe): returns the span string to record, or NULL to
 * fall back to the breadcrumb stack.  mm_prof points this at its
 * open-frame stack so instrumented builds triage without guards. */
extern const char *(*mm_crash_span_hook)(void);

/* Guarded subscript: checks [off] against [m]'s element count (and [m]
 * against NULL) before the access; a statement expression so it stays
 * usable as an lvalue on the left of an assignment.  The passing path
 * is inline — two compares the branch predictor learns immediately —
 * and only a failing subscript calls out to mm_guard_check, which
 * re-derives the cause and reports it; that keeps guarded inner loops
 * free of per-element function calls. */
#define MM_GUARD_IDX(m, off, id)                                              \
  (*({                                                                        \
    __typeof__(m) __mm_gm = (m);                                              \
    int __mm_gi = (off);                                                      \
    if (__builtin_expect(!__mm_gm || (unsigned)__mm_gi >=                     \
                                         (unsigned)__mm_gm->elems,            \
                         0))                                                  \
      mm_guard_check((const void *)__mm_gm, __mm_gi, (id));                   \
    &__mm_gm->data[__mm_gi];                                                  \
  }))

/* Integer minimum (tile-boundary bounds from the transform extension). */
static inline int mm_min(int a, int b) { return a < b ? a : b; }

/* Cilk elision (§VIII future work): serial semantics, as the paper's
 * spawn sites are all joined by an implicit sync before use. */
#define cilk_spawn
#define cilk_sync ((void)0)

/* --- simulated SSE (Fig 11) --------------------------------------------
 * With real SSE the intrinsics come from xmmintrin.h; elsewhere a plain
 * 4-lane float struct provides the same operations, so emitted C stays
 * portable.  Lanes are single precision in both cases — exactly the
 * precision the interpreter's vector unit rounds through. */
#if defined(__SSE__) || defined(_M_X64) || defined(_M_IX86_FP)
#include <xmmintrin.h>
#define MM_HAVE_SSE 1
#else
typedef struct {
  float mm_lane[4];
} __m128;

static inline __m128 _mm_set1_ps(float x) {
  __m128 r;
  for (int k = 0; k < 4; k++) r.mm_lane[k] = x;
  return r;
}

/* _mm_set_ps takes lanes highest-first. */
static inline __m128 _mm_set_ps(float w3, float w2, float w1, float w0) {
  __m128 r;
  r.mm_lane[0] = w0;
  r.mm_lane[1] = w1;
  r.mm_lane[2] = w2;
  r.mm_lane[3] = w3;
  return r;
}

#define MM_DEF_VBIN(name, op)                                                 \
  static inline __m128 name(__m128 a, __m128 b) {                             \
    __m128 r;                                                                 \
    for (int k = 0; k < 4; k++) r.mm_lane[k] = a.mm_lane[k] op b.mm_lane[k];  \
    return r;                                                                 \
  }
MM_DEF_VBIN(_mm_add_ps, +)
MM_DEF_VBIN(_mm_sub_ps, -)
MM_DEF_VBIN(_mm_mul_ps, *)
MM_DEF_VBIN(_mm_div_ps, /)
#undef MM_DEF_VBIN
#endif

/* Lane-wise float modulo (no SSE equivalent; the interpreter rejects
 * vector modulo, so this exists only to keep every emitted operator
 * linkable). */
__m128 mm_mod_ps(__m128 a, __m128 b);

/* Strided scatter of the 4 lanes into a double buffer:
 * data[base + k*stride] = lane k.  Stride 1 covers _mm_storeu_ps sites;
 * widening float -> double is exact, matching the interpreter's store. */
void mm_scatter_ps(mm_float *data, int base, int stride, __m128 v);

/* Horizontal sum: lanes accumulate in double, lane 0 first — the exact
 * order and precision of the interpreter's fold over the vector. */
mm_float mm_hsum_ps(__m128 v);

#endif /* MM_RUNTIME_H */
