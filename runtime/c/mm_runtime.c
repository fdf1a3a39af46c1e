/* mm_runtime implementation — see mm_runtime.h for the contract.  Every
 * observable behaviour (arithmetic precision, file format, result
 * printing) is matched against the mmc reference interpreter by the
 * differential test suite, so change nothing here without running it. */
#include "mm_runtime.h"
#include "mm_simd.h"

#include <errno.h>
#include <fcntl.h>
#include <stdarg.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/stat.h>
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

/* --- checks and faults --------------------------------------------------
 * Failpoints and fault reports; see the header for the __mm_fault
 * protocol and the exit-code split (faults 71, mm_fatal 70). */

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

int mm_span_count(void) { return mm_span_total; }

const char *mm_span_name(int id) {
  if (mm_span_table && id >= 0 && id < mm_span_total) return mm_span_table[id];
  return 0;
}

_Noreturn void mm_guard_fault(int id, const char *fmt, ...) {
  const char *span = mm_span_name(id);
  va_list ap;
  va_start(ap, fmt);
  /* never unlocked: a second thread failing a check waits here until
     this one's _exit ends the process, so one report prints whole */
  flockfile(stdout);
  printf("__mm_fault %d %s ", id, span ? span : "-");
  vprintf(fmt, ap);
  printf("\n");
  fflush(0);
  _exit(71);
}

/* [rank] extents as Runtime.Shape.to_string writes them: "[2x3]". */
#define MM_SHAPE_CHARS (12 * MM_MAX_RANK + 3)
static void mm_shape_string(char *out, int rank, const int *dims) {
  strcpy(out, "[");
  for (int d = 0; d < rank; d++)
    sprintf(out + strlen(out), d ? "x%d" : "%d", dims[d]);
  strcat(out, "]");
}

/* The reports of MM_BOUND, MM_SAME and MM_DIM, worded as
 * Cir.Ir.null_message, bound_message and same_message and
 * Ndarray.dim_size word them for the interpreter. */
_Noreturn void mm_guard_index(const void *p, int dim, int index, int id) {
  const mm_mat_float *m = p;
  if (!m) mm_guard_fault(id, "use of an uninitialised matrix");
  mm_guard_fault(id, "index %d out of bounds for dimension %d of extent %d",
                 index, dim, m->dims[dim]);
}

_Noreturn void mm_guard_same(int a, int b, const char *what, int id) {
  mm_guard_fault(id, "%s: %d against %d", what, a, b);
}

_Noreturn void mm_guard_dim(const void *p, int index, int id) {
  const mm_mat_float *m = p;
  if (!m) mm_guard_fault(id, "use of an uninitialised matrix");
  char shape[MM_SHAPE_CHARS];
  mm_shape_string(shape, m->rank, m->dims);
  mm_guard_fault(id, "dimSize: dimension %d out of range for %s", index,
                 shape);
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

void mm_fail_hit(const char *name, int id) {
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
    if (n == fp->nth)
      mm_guard_fault(id, "injected fault at failpoint %s", name);
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

/* A matrix is one block: its header, then, from the next 16-byte
 * boundary, its n elements, so making and releasing one costs one
 * allocation and one release.  All three mm_mat_* structs share their
 * header prefix; the block is built through the float variant, and
 * [data] points at the payload whatever its kind.  [zero] clears the
 * payload (mm_calloc_*); every other caller writes all of it before
 * reading any.  The header's [block] says which of three kinds the block
 * is, and mm_rc_dec releases it by that record. */
#define MM_HEADER_BYTES ((sizeof(mm_mat_float) + 15) & ~(size_t)15)

enum {
  MM_BLOCK_HEAP, /* malloc */
  MM_BLOCK_HUGE, /* an anonymous mapping on huge pages (mm_map_huge) */
  MM_BLOCK_FILE  /* a malloc header; the payload maps a file (mm_map_floats) */
};

/* A block of at least a huge page is its own anonymous mapping, aligned
 * to the huge page and advised onto huge pages, where first touching it
 * costs less than half what it costs on the 4 KiB pages malloc's own
 * mapping of it gets (EXPERIMENTS.md C22); the kernel zeroes it.  Under
 * AddressSanitizer every block comes from malloc, which ASan guards and
 * fills. */
#define MM_HUGE_PAGE ((size_t)2 << 20)
#ifdef __SANITIZE_ADDRESS__
#define MM_MAP_MIN SIZE_MAX
#else
#define MM_MAP_MIN MM_HUGE_PAGE
#endif

/* [bytes] of zeroed memory mapped from a huge-page boundary; NULL when
 * no mapping can be made.  The mapping is made one huge page longer and
 * trimmed to its aligned part; when that fails (an address-space cap
 * near the size), the exact size is mapped instead. */
static void *mm_map_huge(size_t bytes) {
  size_t page = (size_t)sysconf(_SC_PAGESIZE);
  size_t len = (bytes + page - 1) & ~(page - 1);
  int prot = PROT_READ | PROT_WRITE, flags = MAP_PRIVATE | MAP_ANONYMOUS;
  char *raw = mmap(0, len + MM_HUGE_PAGE, prot, flags, -1, 0), *base;
  if (raw != MAP_FAILED) {
    base = (char *)(((uintptr_t)raw + MM_HUGE_PAGE - 1) &
                    ~(uintptr_t)(MM_HUGE_PAGE - 1));
    if (base > raw) munmap(raw, (size_t)(base - raw));
    munmap(base + len, MM_HUGE_PAGE - (size_t)(base - raw));
  } else {
    base = mmap(0, len, prot, flags, -1, 0);
    if (base == MAP_FAILED) return 0;
  }
#ifdef MADV_HUGEPAGE
  madvise(base, len, MADV_HUGEPAGE);
#endif
  return base;
}

/* Fills in header [m] of an n-element payload at [data] and counts the
 * payload as allocated. */
static mm_mat_float *mm_header(mm_mat_float *m, int block, int kind,
                               int rank, const int *dims, long long n,
                               void *data) {
  m->rc = 1;
  m->kind = kind;
  m->rank = rank;
  m->elems = (int)n;
  m->block = block;
  memcpy(m->dims, dims, (size_t)rank * sizeof(int));
  m->data = data;
  mm_account_alloc(n * (long long)mm_elem_size(kind));
  return m;
}

static mm_mat_float *mm_block(int kind, int rank, const int *dims,
                              long long n, int zero) {
  size_t bytes = MM_HEADER_BYTES + (size_t)n * mm_elem_size(kind);
  int block = bytes >= MM_MAP_MIN ? MM_BLOCK_HUGE : MM_BLOCK_HEAP;
  mm_mat_float *m = block == MM_BLOCK_HUGE ? mm_map_huge(bytes)
                    : zero                 ? calloc(1, bytes)
                                           : malloc(bytes);
  if (!m) mm_fatal("alloc: out of memory for %lld elements", n);
  if (block == MM_BLOCK_HEAP && !zero) memset(m, 0, sizeof *m);
  return mm_header(m, block, kind, rank, dims, n, (char *)m + MM_HEADER_BYTES);
}

/* Ndarray.max_elems: the most elements a matrix may hold. */
#define MM_MAX_ELEMS (1 << 28)

/* The element count of [rank] nonnegative extents, saturating above
 * MM_MAX_ELEMS, so that large extents cannot overflow it (five of 65536
 * would wrap to 0).  An extent is an int, so no step overflows. */
static long long mm_elems(int rank, const int *dims) {
  long long n = 1;
  for (int d = 0; d < rank; d++)
    n = dims[d] == 0 ? 0 : n > MM_MAX_ELEMS ? n : n * dims[d];
  return n;
}

/* An allocation's extents fail the run as Ndarray.create fails it in the
 * interpreter, in the same words, at span [id]. */
static void *mm_alloc(int kind, int zero, int id, int rank, va_list ap) {
  mm_fail_hit("native.alloc", id);
  if (rank < 0 || rank > MM_MAX_RANK)
    mm_fatal("alloc: implausible rank %d", rank);
  int dims[MM_MAX_RANK];
  for (int d = 0; d < rank; d++) {
    dims[d] = va_arg(ap, int);
    if (dims[d] < 0)
      mm_guard_fault(id, "negative matrix extent %d in dimension %d", dims[d],
                     d);
  }
  long long n = mm_elems(rank, dims);
  if (n > MM_MAX_ELEMS) {
    char shape[MM_SHAPE_CHARS];
    mm_shape_string(shape, rank, dims);
    mm_guard_fault(id, "shape %s holds more than %d elements", shape,
                   MM_MAX_ELEMS);
  }
  return mm_block(kind, rank, dims, n, zero);
}

/* mm_alloc_<elem> and mm_calloc_<elem>. */
#define MM_ALLOCATORS(elem, KIND)                                             \
  mm_mat_##elem *mm_alloc_##elem(int id, int rank, ...) {                     \
    va_list ap;                                                               \
    va_start(ap, rank);                                                       \
    void *m = mm_alloc(KIND, 0, id, rank, ap);                                \
    va_end(ap);                                                               \
    return m;                                                                 \
  }                                                                           \
  mm_mat_##elem *mm_calloc_##elem(int id, int rank, ...) {                    \
    va_list ap;                                                               \
    va_start(ap, rank);                                                       \
    void *m = mm_alloc(KIND, 1, id, rank, ap);                                \
    va_end(ap);                                                               \
    return m;                                                                 \
  }

MM_ALLOCATORS(float, MM_KIND_FLOAT)
MM_ALLOCATORS(int, MM_KIND_INT)
MM_ALLOCATORS(bool, MM_KIND_BOOL)

void mm_rc_inc(void *p) {
  if (p) __atomic_fetch_add(&((mm_mat_float *)p)->rc, 1, __ATOMIC_RELAXED);
}

void mm_rc_dec(void *p) {
  if (!p) return;
  mm_mat_float *m = p;
  int rc = __atomic_fetch_sub(&m->rc, 1, __ATOMIC_ACQ_REL);
  if (rc <= 0) mm_guard_fault(-1, "reference count underflow (rc=%d)", rc);
  if (rc <= 1) {
    size_t bytes = (size_t)m->elems * mm_elem_size(m->kind);
    mm_account_free((long long)bytes);
    switch (m->block) {
    case MM_BLOCK_HUGE:
      munmap(m, MM_HEADER_BYTES + bytes);
      break;
    case MM_BLOCK_FILE:
      munmap((char *)m->data - m->mapped, (size_t)m->mapped + bytes);
      free(m);
      break;
    default:
      free(m);
    }
  }
}

/* --- MMAT3 container I/O ------------------------------------------------ */

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

/* MMAT3: "MMAT3\n", the kind byte, the rank and each extent as 4-byte
 * big-endian ints, zero bytes up to the next multiple of 64, then the
 * elements as raw little-endian values — doubles as their IEEE-754
 * bits, ints as int64, bools as one 0/1 byte — the bytes
 * Ndarray.read_file/write_file read and write, so both backends reject
 * the same files.  The padding puts the payload on a 64-byte boundary
 * (offset 64 up to rank 13, 128 above), so the reader maps a float
 * payload from the page cache instead of copying it (mm_map_floats);
 * ints are narrowed and bools checked through one MM_IO_CHUNK buffer.
 * A live mapping dies of SIGBUS if its file shrinks, so the writer
 * never truncates a file: it writes a temporary file beside the target
 * and renames it over the target.  The payload is the host's own
 * layout, so a big-endian host fails to build instead of carrying a
 * byte-swapping path. */
_Static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
               "MMAT3 payloads are read and written in host byte order");
_Static_assert(sizeof(mm_float) == 8 && sizeof(long long) == 8,
               "MMAT3 floats and ints are 8 bytes");

#define MM_MAGIC "MMAT3\n"
#define MM_IO_CHUNK (64 * 1024)
/* The header's length before its padding, and the payload's offset. */
#define MM_HEAD_LEN(rank) (11 + 4 * (rank))
#define MM_PAYLOAD_AT(rank) ((MM_HEAD_LEN(rank) + 63) & ~63)
#define MM_HEAD_MAX MM_PAYLOAD_AT(MM_MAX_RANK)

/* Header ints are 4-byte big-endian (OCaml's output_binary_int). */
static int mm_get_be32(const unsigned char *b) {
  return (int)((unsigned)b[0] << 24 | (unsigned)b[1] << 16 |
               (unsigned)b[2] << 8 | (unsigned)b[3]);
}

static size_t mm_put_be32(unsigned char *b, size_t at, int v) {
  for (int shift = 24; shift >= 0; shift -= 8)
    b[at++] = (unsigned char)((v >> shift) & 0xff);
  return at;
}

/* A failed readMatrix or writeMatrix of [real] at span [id], named as
 * the interpreter names it: by its full path (the working directory is
 * the data directory). */
static _Noreturn void mm_file_fault(int id, const char *what, const char *real,
                                    const char *fmt, ...) {
  char cwd[4096], msg[1024];
  const char *dir = getcwd(cwd, sizeof cwd) ? cwd : ".";
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(msg, sizeof msg, fmt, ap);
  va_end(ap);
  mm_guard_fault(id, "%s \"%s/%s\": %s", what, dir, real, msg);
}

/* A file that will not open: its full path again, then why. */
static _Noreturn void mm_cannot_open(int id, const char *what,
                                     const char *real) {
  int err = errno;
  char cwd[4096];
  const char *dir = getcwd(cwd, sizeof cwd) ? cwd : ".";
  mm_file_fault(id, what, real, "cannot open: %s/%s: %s", dir, real,
                strerror(err));
}

/* Up to [n] bytes of [fd] from offset [off]; fewer only at the end of
 * the file or on a read error. */
static size_t mm_pread_full(int fd, void *buf, size_t n, long long off) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = pread(fd, (char *)buf + got, n - got, (off_t)(off + got));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    got += (size_t)r;
  }
  return got;
}

static int mm_write_full(int fd, const void *buf, size_t n) {
  while (n > 0) {
    ssize_t w = write(fd, buf, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return 0;
    buf = (const char *)buf + w;
    n -= (size_t)w;
  }
  return 1;
}

/* The file's header, padding and payload, written to [fd]. */
static int mm_write_payload(int fd, const mm_mat_float *m) {
  unsigned char hdr[MM_HEAD_MAX] = {0};
  memcpy(hdr, MM_MAGIC, 6);
  hdr[6] = (unsigned char)m->kind;
  size_t at = mm_put_be32(hdr, 7, m->rank);
  for (int d = 0; d < m->rank; d++) at = mm_put_be32(hdr, at, m->dims[d]);
  if (!mm_write_full(fd, hdr, MM_PAYLOAD_AT(m->rank))) return 0;
  size_t n = (size_t)m->elems;
  if (m->kind == MM_KIND_FLOAT) return mm_write_full(fd, m->data, 8 * n);
  size_t width = m->kind == MM_KIND_INT ? 8 : 1, per = MM_IO_CHUNK / width;
  unsigned char *buf = malloc(MM_IO_CHUNK);
  if (!buf) mm_fatal("writeMatrix: out of memory");
  int ok = 1;
  for (size_t i = 0; ok && i < n;) {
    size_t k = n - i < per ? n - i : per;
    if (m->kind == MM_KIND_INT)
      for (size_t j = 0; j < k; j++) {
        long long v = ((const mm_mat_int *)(const void *)m)->data[i + j];
        memcpy(buf + 8 * j, &v, 8);
      }
    else
      for (size_t j = 0; j < k; j++)
        buf[j] = ((const mm_mat_bool *)(const void *)m)->data[i + j] ? 1 : 0;
    ok = mm_write_full(fd, buf, width * k);
    i += k;
  }
  free(buf);
  return ok;
}

/* Writes a uniquely named temporary file beside the target, with the
 * permissions a new file gets, and renames it over the target.  On
 * failure the temporary file is removed and the report names the
 * target. */
void mm_write_matrix(const char *path, const void *p, int id) {
  const mm_mat_float *m = p;
  if (!m) mm_guard_fault(id, "writeMatrix \"%s\": uninitialised matrix", path);
  char *real = mm_resolve_path(path);
  char *tmp = malloc(strlen(real) + 48);
  if (!tmp) mm_fatal("out of memory resolving path");
  static unsigned seq = 0;
  int fd;
  do {
    sprintf(tmp, "%s.%ld.%u.tmp", real, (long)getpid(),
            __atomic_fetch_add(&seq, 1, __ATOMIC_RELAXED));
    fd = open(tmp, O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  } while (fd < 0 && errno == EEXIST);
  if (fd < 0) mm_cannot_open(id, "writeMatrix", real);
  int ok = mm_write_payload(fd, m);
  if (close(fd) != 0 || !ok) {
    unlink(tmp);
    mm_guard_fault(id, "writeMatrix \"%s\": write failed", path);
  }
  if (rename(tmp, real) != 0) {
    int err = errno;
    unlink(tmp);
    errno = err;
    mm_cannot_open(id, "writeMatrix", real);
  }
  free(tmp);
  free(real);
}

/* A float matrix whose payload is the file's own bytes from [start] on,
 * mapped copy-on-write: a store copies one page and never reaches the
 * file.  The header is a block of its own; [mapped] records [start] so
 * mm_rc_dec can unmap the whole mapping. */
static mm_mat_float *mm_map_floats(int fd, int rank, const int *dims,
                                   long long n, long long start) {
  size_t len = (size_t)start + (size_t)n * sizeof(mm_float);
  void *base = mmap(0, len, PROT_READ | PROT_WRITE, MAP_PRIVATE, fd, 0);
  mm_mat_float *m = base == MAP_FAILED ? 0 : calloc(1, sizeof *m);
  if (!m) mm_fatal("alloc: out of memory for %lld elements", n);
  m->mapped = (int)start;
  return mm_header(m, MM_BLOCK_FILE, MM_KIND_FLOAT, rank, dims, n,
                   (char *)base + start);
}

void *mm_read_matrix(const char *path, int id) {
  mm_fail_hit("native.io.read_matrix", id);
  char *real = mm_resolve_path(path);
  int fd = open(real, O_RDONLY | O_CLOEXEC);
  if (fd < 0) mm_cannot_open(id, "readMatrix", real);
#define MM_READ_FAULT(...) mm_file_fault(id, "readMatrix", real, __VA_ARGS__)
  unsigned char head[MM_HEAD_MAX];
  size_t got = mm_pread_full(fd, head, sizeof head, 0);
  static const char *const old[][2] = {
      {"MMAT1\n", "MMAT1 at offset 0 is the old decimal text format"},
      {"MMAT2\n", "MMAT2 at offset 0 is the old unpadded binary format"}};
  for (int i = 0; i < 2; i++)
    if (got >= 6 && memcmp(head, old[i][0], 6) == 0)
      MM_READ_FAULT("%s, which is no longer read (expected magic "
                    "\"MMAT3\\n\"; write the matrix again with writeMatrix)",
                    old[i][1]);
  if (got < 6 || memcmp(head, MM_MAGIC, 6) != 0) MM_READ_FAULT("bad magic");
  int kind = got >= 7 ? head[6] : EOF;
  if (kind != MM_KIND_FLOAT && kind != MM_KIND_INT && kind != MM_KIND_BOOL)
    MM_READ_FAULT("unknown element kind");
  if (got < 11) MM_READ_FAULT("truncated rank");
  int rank = mm_get_be32(head + 7);
  if (rank < 0 || rank > MM_MAX_RANK)
    MM_READ_FAULT("implausible rank %d", rank);
  int dims[MM_MAX_RANK];
  for (int d = 0; d < rank; d++) {
    if (got < (size_t)MM_HEAD_LEN(d + 1)) MM_READ_FAULT("truncated extent");
    int e = mm_get_be32(head + MM_HEAD_LEN(d));
    if (e < 0 || e > (1 << 24)) MM_READ_FAULT("implausible extent %d", e);
    dims[d] = e;
  }
  long long n = mm_elems(rank, dims);
  if (n > MM_MAX_ELEMS) MM_READ_FAULT("more than %d elements", MM_MAX_ELEMS);
  /* The padding, byte by byte as Ndarray.read_file reads it. */
  long long start = MM_PAYLOAD_AT(rank);
  for (long long at = MM_HEAD_LEN(rank); at < start; at++) {
    if (at >= (long long)got)
      MM_READ_FAULT("file is truncated at offset %lld (expected zero "
                    "padding up to offset %lld)",
                    at, start);
    if (head[at] != 0)
      MM_READ_FAULT("nonzero padding byte %d at offset %lld (expected 0 up "
                    "to the payload at offset %lld)",
                    head[at], at, start);
  }
  /* The payload size is fixed by the header: check it against the file
   * before allocating. */
  size_t width = kind == MM_KIND_BOOL ? 1 : 8;
  long long size = start + n * (long long)width;
  struct stat st;
  if (fstat(fd, &st) != 0) MM_READ_FAULT("cannot find the file's length");
  long long flen = (long long)st.st_size;
  if (flen < size)
    MM_READ_FAULT("truncated at element %lld of %lld (file ends at offset "
                  "%lld; the header implies %lld bytes)",
                  (flen - start) / (long long)width, n, flen, size);
  if (flen > size)
    MM_READ_FAULT("trailing data at offset %lld (the file has %lld bytes; "
                  "the header implies %lld)",
                  size, flen, size);
  size_t count = (size_t)n;
  mm_mat_float *m;
  if (kind == MM_KIND_FLOAT && count > 0) {
    m = mm_map_floats(fd, rank, dims, n, start);
  } else {
    m = mm_block(kind, rank, dims, n, 0);
    size_t per = MM_IO_CHUNK / width;
    unsigned char *buf = malloc(MM_IO_CHUNK);
    if (!buf) mm_fatal("readMatrix: out of memory");
    for (size_t i = 0; i < count;) {
      size_t k = count - i < per ? count - i : per;
      if (mm_pread_full(fd, buf, width * k, start + (long long)(width * i)) !=
          width * k)
        MM_READ_FAULT("read error");
      if (kind == MM_KIND_INT)
        for (size_t j = 0; j < k; j++) {
          long long v;
          memcpy(&v, buf + 8 * j, 8);
          ((mm_mat_int *)(void *)m)->data[i + j] = (int)v;
        }
      else
        for (size_t j = 0; j < k; j++) {
          if (buf[j] > 1)
            MM_READ_FAULT("bad bool byte %d for element %zu at offset %lld "
                          "(expected 0 or 1)",
                          buf[j], i + j, start + (long long)(i + j));
          ((mm_mat_bool *)(void *)m)->data[i + j] = buf[j];
        }
      i += k;
    }
    free(buf);
  }
#undef MM_READ_FAULT
  close(fd);
  free(real);
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
