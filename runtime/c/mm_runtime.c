/* mm_runtime implementation — see mm_runtime.h for the contract.  Every
 * observable behaviour (arithmetic precision, file format, result
 * printing) is matched against the mmc reference interpreter by the
 * differential test suite, so change nothing here without running it. */
#include "mm_runtime.h"
#include "mm_simd.h"

#include <fcntl.h>
#include <signal.h>
#include <stdarg.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

#ifdef _OPENMP
#include <omp.h>
#endif

void mm_fatal(const char *fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  fprintf(stderr, "mm_runtime: ");
  vfprintf(stderr, fmt, ap);
  fprintf(stderr, "\n");
  va_end(ap);
  exit(70);
}

/* --- checks and supervised execution -----------------------------------
 * Failpoints, check reports, and crash breadcrumbs; see the header for
 * the __mm_fault protocol and the exit-code split (checks 71, mm_fatal
 * 70, failpoints abort()). */

typedef struct {
  char name[48];
  long long nth; /* fire on exactly the nth hit, one-shot */
  long long hits;
} mm_failpoint;

#define MM_FAIL_MAX 8
static mm_failpoint mm_fail[MM_FAIL_MAX];
static int mm_nfail = 0;

static int mm_span_total = 0;
static const char *const *mm_span_table = 0;

/* The breadcrumb behind the inline push/pop in the header.  A
 * per-thread crumb needs no atomics or omp queries, and the signal
 * handler runs on the faulting thread, so it reads the span that
 * actually led to the fault. */
_Thread_local int mm_crumb = -1;

int mm_span_count(void) { return mm_span_total; }

const char *mm_span_name(int id) {
  if (mm_span_table && id >= 0 && id < mm_span_total) return mm_span_table[id];
  return 0;
}

/* Fatal-signal handler: write the breadcrumb's span to mm_crash.txt
 * (async-signal-safe: open/write/close only), then die by the original
 * signal so the supervisor still sees the true cause. */
static void mm_crash_handler(int sig) {
  const char *span = mm_span_name(mm_crumb);
  if (span) {
    int fd = open("mm_crash.txt", O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ssize_t w = write(fd, span, strlen(span));
      w += write(fd, "\n", 1);
      (void)w;
      close(fd);
    }
  }
  signal(sig, SIG_DFL);
  raise(sig);
}

_Noreturn void mm_guard_fault(int id, const char *fmt, ...) {
  const char *span = mm_span_name(id);
  /* never unlocked: a second thread failing a check waits here until
     this one's _exit ends the process, so one report prints whole */
  flockfile(stdout);
  printf("__mm_fault %d %s ", id, span ? span : "-");
  va_list ap;
  va_start(ap, fmt);
  vprintf(fmt, ap);
  va_end(ap);
  printf("\n");
  fflush(0);
  _exit(71);
}

/* The reports of MM_BOUND and MM_SAME, worded as Cir.Ir.null_message,
 * bound_message and same_message word them for the interpreter. */
_Noreturn void mm_guard_index(const void *p, int dim, int index, int id) {
  const mm_mat_float *m = p;
  if (!m) mm_guard_fault(id, "use of an uninitialised matrix");
  mm_guard_fault(id, "index %d out of bounds for dimension %d of extent %d",
                 index, dim, m->dims[dim]);
}

_Noreturn void mm_guard_same(int a, int b, const char *what, int id) {
  mm_guard_fault(id, "%s: %d against %d", what, a, b);
}

/* One clause of MM_FAILPOINTS, already comma-split and trimmed: name@K,
 * fire on the K-th hit (K a positive decimal integer).  Mirrors
 * Support.Failpoint.parse_clause, including the rejections, and rejects
 * a name that is not one of this runtime's failpoints, as
 * Support.Failpoint.arm_spec does for the interpreter's. */
static void mm_fail_clause(char *clause) {
  while (*clause == ' ' || *clause == '\t') clause++;
  size_t len = strlen(clause);
  while (len > 0 && (clause[len - 1] == ' ' || clause[len - 1] == '\t'))
    clause[--len] = 0;
  if (len == 0) return; /* blank clauses are ignored, like arm_spec */
  char *at = strchr(clause, '@');
  if (!at) mm_fatal("MM_FAILPOINTS \"%s\": expected name@k", clause);
  *at = 0;
  char *name = clause, *k = at + 1;
  if (!*name || !*k)
    mm_fatal("MM_FAILPOINTS \"%s@%s\": empty name or trigger", name, k);
  long long nth = strtoll(k, 0, 10);
  if (k[strspn(k, "0123456789")] != 0 || nth < 1)
    mm_fatal("MM_FAILPOINTS \"%s@%s\": trigger \"%s\" is not a hit count "
             ">= 1", name, k, k);
  if (strcmp(name, "native.alloc") != 0 &&
      strcmp(name, "native.io.read_matrix") != 0)
    mm_fatal("MM_FAILPOINTS: no failpoint named \"%s\"", name);
  if (mm_nfail >= MM_FAIL_MAX)
    mm_fatal("MM_FAILPOINTS: more than %d clauses", MM_FAIL_MAX);
  mm_failpoint *fp = &mm_fail[mm_nfail++];
  strcpy(fp->name, name);
  fp->nth = nth;
  fp->hits = 0;
}

void mm_init(int nspans, const char *const *spans) {
  mm_span_total = nspans;
  mm_span_table = spans;
  signal(SIGSEGV, mm_crash_handler);
  signal(SIGFPE, mm_crash_handler);
  signal(SIGBUS, mm_crash_handler);
  signal(SIGABRT, mm_crash_handler);
  const char *spec = getenv("MM_FAILPOINTS");
  if (!spec || !*spec) return;
  char *copy = malloc(strlen(spec) + 1);
  if (!copy) mm_fatal("out of memory");
  strcpy(copy, spec);
  char *start = copy;
  for (char *c = copy;; c++) {
    if (*c == ',' || *c == 0) {
      int done = *c == 0;
      *c = 0;
      mm_fail_clause(start);
      if (done) break;
      start = c + 1;
    }
  }
  free(copy);
}

void mm_fail_hit(const char *name) {
  if (mm_nfail == 0) return;
  for (int i = 0; i < mm_nfail; i++) {
    mm_failpoint *fp = &mm_fail[i];
    if (strcmp(fp->name, name) != 0) continue;
    long long n;
    /* hits can come from inside OpenMP regions; one counter bump per
     * site keeps the trigger one-shot across threads */
#ifdef _OPENMP
#pragma omp critical(mm_fail_hits)
#endif
    n = ++fp->hits;
    if (n == fp->nth) {
      printf("__mm_fault -1 - injected fault at failpoint %s\n", name);
      fflush(stdout);
      abort();
    }
    return;
  }
}

/* --- allocation and reference counting --------------------------------- */

/* Allocation happens inside OpenMP regions (auto-par loops allocate
 * slices and temporaries), so the live count and the payload-byte
 * tallies (live, cumulative) must stay exact under concurrency — and
 * without every thread writing the same cache line.  Each thread claims
 * its own cache-line-aligned slot on its first allocation or release
 * and is that slot's only writer, so a relaxed load and store replace
 * the read-modify-write.  The readers (mm_result_live at exit, the
 * profiler's dump) sum the slots after the parallel work.  Threads past
 * the end of the table share one overflow slot under atomic
 * read-modify-writes, so the counts are exact at any thread count.
 * Slots are never reused: an exited thread's tallies still count.
 *
 * The peak needs the global live total at each allocation, so it is
 * kept only while mm_alloc_hook is set (the profiler installs it before
 * the program allocates), in a shared counter.  The per-object
 * refcounts stay atomic read-modify-writes; only the decrement that may
 * free orders memory (acq_rel), so the thread that frees sees every
 * other thread's last use of the payload. */
#define MM_TALLY_SLOTS 64

enum { MM_LIVE, MM_LIVE_BYTES, MM_ALLOC_BYTES, MM_TALLIES };

typedef struct {
  _Alignas(64) long long v[MM_TALLIES];
} mm_tally;

static mm_tally mm_tallies[MM_TALLY_SLOTS];
static mm_tally mm_tally_overflow;
static int mm_tally_claimed = 0;
static _Thread_local mm_tally *mm_tally_mine = 0;

static void mm_tally_add(int k, long long d) {
  mm_tally *t = mm_tally_mine;
  if (!t) {
    int i = __atomic_fetch_add(&mm_tally_claimed, 1, __ATOMIC_RELAXED);
    t = mm_tally_mine = i < MM_TALLY_SLOTS ? &mm_tallies[i] : &mm_tally_overflow;
  }
  if (t == &mm_tally_overflow)
    __atomic_fetch_add(&t->v[k], d, __ATOMIC_RELAXED);
  else
    __atomic_store_n(&t->v[k], __atomic_load_n(&t->v[k], __ATOMIC_RELAXED) + d,
                     __ATOMIC_RELAXED);
}

static long long mm_tally_sum(int k) {
  int n = __atomic_load_n(&mm_tally_claimed, __ATOMIC_RELAXED);
  long long sum = __atomic_load_n(&mm_tally_overflow.v[k], __ATOMIC_RELAXED);
  for (int i = 0; i < n && i < MM_TALLY_SLOTS; i++)
    sum += __atomic_load_n(&mm_tallies[i].v[k], __ATOMIC_RELAXED);
  return sum;
}

int mm_live_count(void) { return (int)mm_tally_sum(MM_LIVE); }
long long mm_live_bytes(void) { return mm_tally_sum(MM_LIVE_BYTES); }
long long mm_allocated_bytes(void) { return mm_tally_sum(MM_ALLOC_BYTES); }

void (*mm_alloc_hook)(long long bytes) = 0;
static long long mm_hooked_live_b = 0; /* live bytes while hooked */
static long long mm_peak_b = 0;

long long mm_peak_bytes(void) {
  return __atomic_load_n(&mm_peak_b, __ATOMIC_RELAXED);
}

static void mm_account_alloc(long long bytes) {
  mm_tally_add(MM_LIVE, 1);
  mm_tally_add(MM_LIVE_BYTES, bytes);
  mm_tally_add(MM_ALLOC_BYTES, bytes);
  if (mm_alloc_hook) {
    long long live =
        __atomic_add_fetch(&mm_hooked_live_b, bytes, __ATOMIC_RELAXED);
    long long peak = __atomic_load_n(&mm_peak_b, __ATOMIC_RELAXED);
    while (live > peak &&
           !__atomic_compare_exchange_n(&mm_peak_b, &peak, live, 1,
                                        __ATOMIC_RELAXED, __ATOMIC_RELAXED))
      ;
    mm_alloc_hook(bytes);
  }
}

static void mm_account_free(long long bytes) {
  mm_tally_add(MM_LIVE, -1);
  mm_tally_add(MM_LIVE_BYTES, -bytes);
  if (mm_alloc_hook)
    __atomic_fetch_sub(&mm_hooked_live_b, bytes, __ATOMIC_RELAXED);
}

static size_t mm_elem_size(int kind) {
  switch (kind) {
  case MM_KIND_FLOAT:
    return sizeof(mm_float);
  case MM_KIND_INT:
    return sizeof(int);
  default:
    return sizeof(bool);
  }
}

/* All three mm_mat_* structs share their header prefix; allocate through
 * the float variant and set the data pointer behind a char * so the same
 * code serves every kind. */
static void *mm_alloc(int kind, int rank, va_list ap) {
  mm_fail_hit("native.alloc");
  if (rank < 0 || rank > MM_MAX_RANK)
    mm_fatal("alloc: implausible rank %d", rank);
  mm_mat_float *m = calloc(1, sizeof(mm_mat_float));
  if (!m) mm_fatal("alloc: out of memory");
  m->rc = 1;
  m->kind = kind;
  m->rank = rank;
  long long n = 1;
  for (int d = 0; d < rank; d++) {
    int e = va_arg(ap, int);
    if (e < 0) mm_fatal("alloc: negative extent %d in dimension %d", e, d);
    m->dims[d] = e;
    n *= e;
  }
  if (n > (1 << 28)) mm_fatal("alloc: %lld elements exceeds limit", n);
  m->elems = (int)n;
  m->data = calloc(n > 0 ? (size_t)n : 1, mm_elem_size(kind));
  if (!m->data) mm_fatal("alloc: out of memory for %lld elements", n);
  mm_account_alloc(n * (long long)mm_elem_size(kind));
  return m;
}

mm_mat_float *mm_alloc_float(int rank, ...) {
  va_list ap;
  va_start(ap, rank);
  void *m = mm_alloc(MM_KIND_FLOAT, rank, ap);
  va_end(ap);
  return m;
}

mm_mat_int *mm_alloc_int(int rank, ...) {
  va_list ap;
  va_start(ap, rank);
  void *m = mm_alloc(MM_KIND_INT, rank, ap);
  va_end(ap);
  return m;
}

mm_mat_bool *mm_alloc_bool(int rank, ...) {
  va_list ap;
  va_start(ap, rank);
  void *m = mm_alloc(MM_KIND_BOOL, rank, ap);
  va_end(ap);
  return m;
}

void mm_rc_inc(void *p) {
  if (p) __atomic_fetch_add(&((mm_mat_float *)p)->rc, 1, __ATOMIC_RELAXED);
}

void mm_rc_dec(void *p) {
  if (!p) return;
  mm_mat_float *m = p;
  int rc = __atomic_fetch_sub(&m->rc, 1, __ATOMIC_ACQ_REL);
  if (rc <= 0) mm_guard_fault(-1, "reference count underflow (rc=%d)", rc);
  if (rc <= 1) {
    mm_account_free((long long)m->elems * (long long)mm_elem_size(m->kind));
    free(m->data);
    free(m);
  }
}

int mm_size(const void *p) { return ((const mm_mat_float *)p)->elems; }

/* --- MMAT2 container I/O ------------------------------------------------ */

/* The interpreter's virtual filesystem flattens path separators, so a
 * program's "out/result.data" and the harness's fetch of the same name
 * agree on one file name in the working directory. */
static char *mm_resolve_path(const char *path) {
  char *real = malloc(strlen(path) + 1);
  if (!real) mm_fatal("out of memory resolving path");
  strcpy(real, path);
  for (char *c = real; *c; c++)
    if (*c == '/' || *c == '\\') *c = '_';
  return real;
}

static long long mm_double_bits(double d) {
  long long i;
  memcpy(&i, &d, sizeof(i));
  return i;
}

/* MMAT2: "MMAT2\n", the kind byte, the rank and each extent as 4-byte
 * big-endian ints, then the elements as raw little-endian values —
 * doubles as their IEEE-754 bits, ints as int64, bools as one 0/1 byte —
 * the bytes Ndarray.read_file/write_file read and write, so both
 * backends reject the same files.  A float payload moves between the
 * file and the matrix buffer in one fread/fwrite; ints and bools are
 * converted through one MM_IO_CHUNK buffer.  The payload is the host's
 * own layout, so a big-endian host fails to build instead of carrying
 * a byte-swapping path. */
_Static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
               "MMAT2 payloads are read and written in host byte order");
_Static_assert(sizeof(mm_float) == 8 && sizeof(long long) == 8,
               "MMAT2 floats and ints are 8 bytes");

#define MM_MAGIC "MMAT2\n"
#define MM_IO_CHUNK (64 * 1024)

/* Header ints are 4-byte big-endian (OCaml's output_binary_int). */
static int mm_get_be32(FILE *f, const char *path, const char *what) {
  unsigned char b[4];
  if (fread(b, 1, 4, f) < 4)
    mm_fatal("readMatrix \"%s\": truncated %s", path, what);
  return (int)((unsigned)b[0] << 24 | (unsigned)b[1] << 16 |
               (unsigned)b[2] << 8 | (unsigned)b[3]);
}

static size_t mm_put_be32(unsigned char *b, size_t at, int v) {
  for (int shift = 24; shift >= 0; shift -= 8)
    b[at++] = (unsigned char)((v >> shift) & 0xff);
  return at;
}

void mm_write_matrix(const char *path, const void *p) {
  const mm_mat_float *m = p;
  if (!m) mm_fatal("writeMatrix \"%s\": uninitialised matrix", path);
  char *real = mm_resolve_path(path);
  FILE *f = fopen(real, "wb");
  if (!f) mm_fatal("writeMatrix \"%s\": cannot open %s", path, real);
  free(real);
  unsigned char hdr[7 + 4 * (1 + MM_MAX_RANK)];
  memcpy(hdr, MM_MAGIC, 6);
  hdr[6] = (unsigned char)m->kind;
  size_t len = mm_put_be32(hdr, 7, m->rank);
  for (int d = 0; d < m->rank; d++) len = mm_put_be32(hdr, len, m->dims[d]);
  int ok = fwrite(hdr, 1, len, f) == len;
  size_t n = (size_t)m->elems;
  if (m->kind == MM_KIND_FLOAT) {
    ok = ok && fwrite(m->data, 8, n, f) == n;
  } else {
    size_t width = m->kind == MM_KIND_INT ? 8 : 1, per = MM_IO_CHUNK / width;
    unsigned char *buf = malloc(MM_IO_CHUNK);
    if (!buf) mm_fatal("writeMatrix \"%s\": out of memory", path);
    for (size_t i = 0; ok && i < n;) {
      size_t k = n - i < per ? n - i : per;
      if (m->kind == MM_KIND_INT)
        for (size_t j = 0; j < k; j++) {
          long long v = ((const mm_mat_int *)p)->data[i + j];
          memcpy(buf + 8 * j, &v, 8);
        }
      else
        for (size_t j = 0; j < k; j++)
          buf[j] = ((const mm_mat_bool *)p)->data[i + j] ? 1 : 0;
      ok = fwrite(buf, width, k, f) == k;
      i += k;
    }
    free(buf);
  }
  if (fclose(f) != 0 || !ok)
    mm_fatal("writeMatrix \"%s\": write failed", path);
}

void *mm_read_matrix(const char *path) {
  mm_fail_hit("native.io.read_matrix");
  char *real = mm_resolve_path(path);
  FILE *f = fopen(real, "rb");
  if (!f) mm_fatal("readMatrix \"%s\": cannot open: %s", path, real);
  free(real);
  unsigned char head[7];
  size_t got = fread(head, 1, 7, f);
  if (got >= 6 && memcmp(head, "MMAT1\n", 6) == 0)
    mm_fatal("readMatrix \"%s\": MMAT1 is the old decimal text format, which "
             "is no longer read (expected magic MMAT2; write the matrix again "
             "with writeMatrix)",
             path);
  if (got < 6 || memcmp(head, MM_MAGIC, 6) != 0)
    mm_fatal("readMatrix \"%s\": bad magic", path);
  int kind = got == 7 ? head[6] : EOF;
  if (kind != MM_KIND_FLOAT && kind != MM_KIND_INT && kind != MM_KIND_BOOL)
    mm_fatal("readMatrix \"%s\": unknown element kind", path);
  int rank = mm_get_be32(f, path, "rank");
  if (rank < 0 || rank > MM_MAX_RANK)
    mm_fatal("readMatrix \"%s\": implausible rank %d", path, rank);
  mm_mat_float *m = calloc(1, sizeof(mm_mat_float));
  if (!m) mm_fatal("out of memory");
  m->rc = 1;
  m->kind = kind;
  m->rank = rank;
  /* The element count saturates above the limit, so a header of large
   * extents cannot overflow it (and wrap to 0). */
  long long n = 1;
  for (int d = 0; d < rank; d++) {
    int e = mm_get_be32(f, path, "extent");
    if (e < 0 || e > (1 << 24))
      mm_fatal("readMatrix \"%s\": implausible extent %d", path, e);
    m->dims[d] = e;
    n = e == 0 ? 0 : n > (1 << 28) ? n : n * e;
  }
  if (n > (1 << 28))
    mm_fatal("readMatrix \"%s\": more than %d elements", path, 1 << 28);
  /* The payload size is fixed by the header: check it against the file
   * before allocating. */
  size_t width = kind == MM_KIND_BOOL ? 1 : 8;
  long long start = 11 + 4 * (long long)rank;
  long long size = start + n * (long long)width;
  long long flen = -1;
  if (fseek(f, 0, SEEK_END) == 0) flen = ftell(f);
  if (flen < 0 || fseek(f, (long)start, SEEK_SET) != 0)
    mm_fatal("readMatrix \"%s\": cannot find the file's length", path);
  if (flen < size)
    mm_fatal("readMatrix \"%s\": truncated at element %lld of %lld (file ends "
             "at offset %lld; the header implies %lld bytes)",
             path, (flen - start) / (long long)width, n, flen, size);
  if (flen > size)
    mm_fatal("readMatrix \"%s\": trailing data at offset %lld (the file has "
             "%lld bytes; the header implies %lld)",
             path, size, flen, size);
  m->elems = (int)n;
  m->data = malloc(n > 0 ? (size_t)n * mm_elem_size(kind) : 1);
  if (!m->data) mm_fatal("out of memory for %lld elements", n);
  mm_account_alloc(n * (long long)mm_elem_size(kind));
  size_t count = (size_t)n;
  if (kind == MM_KIND_FLOAT) {
    if (fread(m->data, 8, count, f) != count)
      mm_fatal("readMatrix \"%s\": read error", path);
  } else {
    size_t per = MM_IO_CHUNK / width;
    unsigned char *buf = malloc(MM_IO_CHUNK);
    if (!buf) mm_fatal("readMatrix \"%s\": out of memory", path);
    for (size_t i = 0; i < count;) {
      size_t k = count - i < per ? count - i : per;
      if (fread(buf, width, k, f) != k)
        mm_fatal("readMatrix \"%s\": read error", path);
      if (kind == MM_KIND_INT)
        for (size_t j = 0; j < k; j++) {
          long long v;
          memcpy(&v, buf + 8 * j, 8);
          ((mm_mat_int *)(void *)m)->data[i + j] = (int)v;
        }
      else
        for (size_t j = 0; j < k; j++) {
          if (buf[j] > 1)
            mm_fatal("readMatrix \"%s\": bad bool byte %d for element %zu at "
                     "offset %lld (expected 0 or 1)",
                     path, buf[j], i + j, start + (long long)(i + j));
          ((mm_mat_bool *)(void *)m)->data[i + j] = buf[j];
        }
      i += k;
    }
    free(buf);
  }
  fclose(f);
  return m;
}

/* --- result protocol ---------------------------------------------------- */

void mm_result_int(int v) { printf("__mm_result int %d\n", v); }

void mm_result_float(mm_float v) {
  printf("__mm_result float %lld\n", mm_double_bits(v));
}

void mm_result_bool(bool v) { printf("__mm_result bool %d\n", v ? 1 : 0); }

void mm_result_void(void) { printf("__mm_result void\n"); }

void mm_result_null(void) { printf("__mm_result null\n"); }

void mm_result_tuple(int fields) { printf("__mm_result tuple %d\n", fields); }

void mm_result_mat(const void *p) {
  const mm_mat_float *m = p;
  if (!m) {
    mm_result_null();
    return;
  }
  printf("__mm_result mat %c %d", m->kind, m->rank);
  for (int d = 0; d < m->rank; d++) printf(" %d", m->dims[d]);
  printf("\n__mm_data");
  for (int i = 0; i < m->elems; i++) {
    switch (m->kind) {
    case MM_KIND_FLOAT:
      printf(" %lld", mm_double_bits(m->data[i]));
      break;
    case MM_KIND_INT:
      printf(" %d", ((const mm_mat_int *)p)->data[i]);
      break;
    default:
      printf(" %d", ((const mm_mat_bool *)p)->data[i] ? 1 : 0);
    }
  }
  printf("\n");
}

void mm_result_live(void) { printf("__mm_live %d\n", mm_live_count()); }

/* --- simulated SSE ------------------------------------------------------ */

/* Lane access that works for both real __m128 and the portable struct. */
typedef union {
  __m128 v;
  float f[4];
} mm_lanes;

void mm_scatter_ps(mm_float *data, int base, int stride, __m128 v) {
  mm_lanes u;
  u.v = v;
  for (int k = 0; k < 4; k++) data[base + k * stride] = (mm_float)u.f[k];
}

mm_float mm_hsum_ps(__m128 v) {
  mm_lanes u;
  u.v = v;
  mm_float s = 0.0;
  for (int k = 0; k < 4; k++) s += (mm_float)u.f[k];
  return s;
}

__m128 mm_mod_ps(__m128 a, __m128 b) {
  mm_lanes x, y, r;
  x.v = a;
  y.v = b;
  for (int k = 0; k < 4; k++) {
    /* C99 fmodf without pulling in <math.h> link requirements: the
     * interpreter rejects vector modulo, so this path is unreachable
     * from generated code and exists only for link completeness. */
    float q = x.f[k] / y.f[k];
    r.f[k] = x.f[k] - (float)(long long)q * y.f[k];
  }
  return r.v;
}
