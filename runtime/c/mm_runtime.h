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
 *   - readMatrix/writeMatrix speak the interpreter's MMAT3 container
 *     byte-for-byte: a big-endian header (magic, kind byte, rank,
 *     extents) zero-padded to a multiple of 64 bytes, then the raw
 *     little-endian payload — floats as their IEEE-754 binary64 bits,
 *     ints as int64 (narrowed to int on read), bools as one 0/1 byte.
 *     The runtime builds only on little-endian hosts.
 */
#ifndef MM_RUNTIME_H
#define MM_RUNTIME_H

#include <stdbool.h>
#include <stddef.h>

typedef double mm_float;

#define MM_MAX_RANK 16

/* Element kinds, matching the MMAT3 container's kind byte. */
#define MM_KIND_FLOAT 'f'
#define MM_KIND_INT 'i'
#define MM_KIND_BOOL 'b'

/* All three matrix structs share a layout prefix (rc, kind, rank, elems,
 * block, mapped, dims) so mm_rc_inc/mm_rc_dec/mm_size/mm_write_matrix can
 * take any of them through void *.  [block] records how the runtime made
 * the matrix, so that mm_rc_dec releases it the same way; [mapped] is
 * the payload's offset in its file mapping for a float matrix readMatrix
 * mapped, and 0 otherwise. */
#define MM_MAT_HEADER                                                         \
  int rc;                                                                     \
  int kind;                                                                   \
  int rank;                                                                   \
  int elems;                                                                  \
  int block;                                                                  \
  int mapped;                                                                 \
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

/* Allocation (refcount 1) and reference counting.  mm_alloc_* leaves
 * the payload unset: lowering calls it for every result its loops write
 * in full before anything reads it.  mm_calloc_* zeroes the payload, for
 * init(...) and a genarray whose generator may not cover its shape.  A
 * matrix is one block, its header and then its payload, which [data]
 * points at: a malloc block, or, from 2 MiB on, an anonymous mapping
 * aligned to 2 MiB and advised onto huge pages (the heap only, under
 * AddressSanitizer).  A float matrix readMatrix read is a header block
 * whose [data] points into a copy-on-write mapping of the file.  [id]
 * is the span of the code allocating, ahead of the variadic extents: a
 * negative extent, more than 2^28 elements or the native.alloc
 * failpoint fails the run there, as a check does.  mm_rc_dec releases
 * the block when the count reaches zero, and faults on a count that was
 * already zero and on a view (mm_view_*, below); both tolerate NULL so
 * generated cleanup code needs no tests. */
mm_mat_float *mm_alloc_float(int id, int rank, ...);
mm_mat_int *mm_alloc_int(int id, int rank, ...);
mm_mat_bool *mm_alloc_bool(int id, int rank, ...);
mm_mat_float *mm_calloc_float(int id, int rank, ...);
mm_mat_int *mm_calloc_int(int id, int rank, ...);
mm_mat_bool *mm_calloc_bool(int id, int rank, ...);
void mm_rc_inc(void *m);
void mm_rc_dec(void *m);
int mm_live_count(void);

/* How the runtime made a matrix, recorded in its header's [block], so
 * that mm_rc_dec releases it the same way.  A view is no block at all:
 * releasing one faults. */
enum {
  MM_BLOCK_HEAP, /* malloc */
  MM_BLOCK_HUGE, /* an anonymous mapping on huge pages */
  MM_BLOCK_FILE, /* a malloc header; the payload maps a file */
  MM_BLOCK_VIEW  /* a borrowed view: a header the caller provides */
};

/* mm_view_<elem>(h, data, rank, dims): a borrowed view of [rank]
 * extents [dims] of another matrix's payload, its elements from [data]
 * on, built in header [h], which the generated code provides as a
 * compound literal on the stack.  It allocates nothing and is counted
 * nowhere: the matrix it borrows from outlives it. */
#define MM_VIEWER(elem, T, KIND)                                              \
  static inline mm_mat_##elem *mm_view_##elem(mm_mat_##elem *v, T *data,      \
                                              int rank, const int *dims) {    \
    int n = 1;                                                                \
    for (int d = 0; d < rank; d++) n *= v->dims[d] = dims[d];                 \
    v->rc = 1;                                                                \
    v->kind = KIND;                                                           \
    v->rank = rank;                                                           \
    v->elems = n;                                                             \
    v->block = MM_BLOCK_VIEW;                                                 \
    v->mapped = 0;                                                            \
    v->data = data;                                                           \
    return v;                                                                 \
  }
MM_VIEWER(float, mm_float, MM_KIND_FLOAT)
MM_VIEWER(int, int, MM_KIND_INT)
MM_VIEWER(bool, bool, MM_KIND_BOOL)
#undef MM_VIEWER

/* A matrix's element count: inline, since every elementwise loop tests
 * it once per element. */
static inline int mm_size(const void *m) {
  return ((const mm_mat_float *)m)->elems;
}

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

/* MMAT3 container I/O (readMatrix/writeMatrix builtins).  Paths resolve
 * like the interpreter's virtual filesystem: '/' and '\' map to '_',
 * relative to the current working directory.  A file that cannot be
 * opened, whose header padding is not zero, whose size differs from what
 * its header implies, or whose bool payload holds a byte other than 0 or
 * 1, a NULL matrix to write, a failed write and the
 * native.io.read_matrix failpoint fail the run as a check does, at span
 * [id].  A write replaces the file by renaming a finished temporary file
 * over it, so it never truncates a file a matrix maps. */
void *mm_read_matrix(const char *path, int id);
void mm_write_matrix(const char *path, const void *m, int id);

/* Abort with an "mm_runtime: ..." diagnostic on stderr and exit code 70
 * (the runtime-failure exit the mmc driver maps back to a diagnostic),
 * for what has no span: running out of memory, a bad MM_FAILPOINTS. */
void mm_fatal(const char *fmt, ...);

/* Result protocol: the generated main prints the entry function's result
 * as "__mm_result ..." lines that `mmc exec` parses back into the same
 * value the interpreter would return, then a final "__mm_live N" line
 * with the allocations still live (the interpreter warns on the same
 * number).  An instrumented harness then prints its profile as one
 * "__mm_profile <json>" line (mm_prof_dump). */
void mm_result_int(int v);
void mm_result_float(mm_float v);
void mm_result_bool(bool v);
void mm_result_void(void);
void mm_result_null(void);
void mm_result_tuple(int fields);
void mm_result_mat(const void *m);
void mm_result_live(void);

/* --- checks and faults --------------------------------------------------
 * The checks lowering wrote into every program, the runtime's fallible
 * calls and MM_FAILPOINTS fault injection all fail the same way: one
 * structured protocol line on stdout,
 *   __mm_fault <span_id> <span|-> <message...>
 * naming the span id the generated code passed, then _exit(71).  The
 * exits are distinct: a fault 71, mm_fatal (out of memory, a bad
 * MM_FAILPOINTS) 70.  Anything that still ends in a signal (a stack
 * overflow, a runtime bug, an external kill) is reported by the
 * signal's name, with no span. */

/* Hand the runtime the program's span table (the generated mm_spans:
 * ids index it, entries are "line:col-..." strings) and arm failpoints
 * from the MM_FAILPOINTS environment variable ("name@K,…", each clause
 * firing on the K-th hit — the Support.Failpoint grammar; a malformed
 * spec, or a name other than native.alloc and native.io.read_matrix, is
 * mm_fatal).  Called first thing by every generated exec harness. */
void mm_init(int nspans, const char *const *spans);

/* The table's size, and the span string of id [id] (NULL when there is
 * none). */
int mm_span_count(void);
const char *mm_span_name(int id);

/* Count one pass through failpoint [name]; on the armed hit, fail the
 * run at span [id] as a check does.  The disarmed fast path is one load
 * of the clause count. */
void mm_fail_hit(const char *name, int id);

/* Report a fault at span [id] (-1 = no span) and _exit(71).  Does not
 * return; of threads failing at once, one reports. */
_Noreturn void mm_guard_fault(int id, const char *fmt, ...);

/* Slow paths of the checks, only ever called once the inline test
 * has failed: they word the report (the interpreter words the same
 * text) and fault.  _Noreturn, so the optimizer keeps the passing path
 * free of spills and can hoist bound loads across iterations. */
_Noreturn void mm_guard_index(const void *m, int dim, int index, int id);
_Noreturn void mm_guard_same(int a, int b, const char *what, int id);
_Noreturn void mm_guard_dim(const void *m, int index, int id);

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

/* A computed dimSize dimension names one of the matrix's: 0 <= [i] <
 * [rank], its static rank. */
#define MM_DIM(m, rank, i, id)                                                \
  (__builtin_expect((unsigned)(i) >= (unsigned)(rank), 0)                     \
       ? mm_guard_dim((const void *)(m), (i), (id))                           \
       : (void)0)

/* An operand that may be NULL (a parameter, a call's result, a local
 * declared without an initialiser, or a name bound to one) is set by the
 * time an operation reads its extents or size (mm_guard_index words the
 * NULL report). */
#define MM_NOT_NULL(m, id)                                                    \
  (__builtin_expect(!(m), 0) ? mm_guard_index(NULL, 0, 0, (id)) : (void)0)

/* Integer division and modulo, failing as the interpreter does on a
 * zero divisor, at span [id].  The emitter routes every `/` and `%`
 * whose divisor is not a nonzero literal through these; mm_div picks
 * by the operands' type, so a float division stays the plain operator,
 * whose zero divisor gives an infinity in both backends. */
static inline int mm_div_int(int a, int b, int id) {
  if (__builtin_expect(b == 0, 0))
    mm_guard_fault(id, "integer division by zero");
  return a / b;
}

static inline mm_float mm_div_float(mm_float a, mm_float b, int id) {
  (void)id;
  return a / b;
}

#define mm_div(a, b, id)                                                      \
  _Generic((a) + (b), int: mm_div_int, default: mm_div_float)((a), (b), (id))

static inline int mm_mod(int a, int b, int id) {
  if (__builtin_expect(b == 0, 0)) mm_guard_fault(id, "modulo by zero");
  return a % b;
}

/* Integer minimum (tile-boundary bounds from the transform extension). */
static inline int mm_min(int a, int b) { return a < b ? a : b; }

/* Cilk elision (§VIII future work): serial semantics, as the paper's
 * spawn sites are all joined by an implicit sync before use. */
#define cilk_spawn
#define cilk_sync ((void)0)

#endif /* MM_RUNTIME_H */
