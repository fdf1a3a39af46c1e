/* mm_prof implementation — see mm_prof.h for the attribution model.
 * The aggregates intentionally mirror the interpreter profiler
 * (lib/support/profile.ml): per-span total/self/par/seq ns, iteration
 * and dispatch counts, per-worker busy ns, allocation bytes, and folded
 * stacks for flamegraph tools. */
#include "mm_prof.h"
#include "mm_runtime.h"

#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#define MM_PROF_MAX_DEPTH 64
#define MM_PROF_MAX_WORKERS 64
#define MM_PROF_MAX_FOLDED 1024
/* Timed closes before a span's timing freezes. */
#define MM_PROF_FREEZE_AFTER 128

typedef struct {
  long long entries;    /* times a frame for this span closed */
  long long total_ns;   /* wall time while the span was open */
  long long self_ns;    /* total minus time in nested spans */
  long long par_ns;     /* self time of parallel-dispatch frames */
  long long seq_ns;     /* self time of sequential frames */
  long long iters;      /* loop iterations executed */
  long long dispatches; /* parallel regions actually dispatched */
  long long alloc_bytes;
  /* Sampling freeze: after MM_PROF_FREEZE_AFTER timed closes a span
   * stops taking clock readings; further executions are counted (inline
   * by the emitted guards, via mm_prof_sentries/siters) and charged the
   * frozen per-close averages below at stop time.  Keeps the probe cost
   * of a tiny span entered per element of an enclosing loop near zero
   * while total/self stay statistically right. */
  int frozen;
  int fold_e;  /* fold entry holding this span's path at freeze time */
  int parent;  /* innermost open span at freeze time, -1 if none */
  long long est_total;
  long long est_self;
  long long frozen_self; /* self ns accumulated while frozen */
  /* Skipped executions the freeze-time parent absorbed: all of them
   * (-1) until the parent's own clock stops, then the count so far. */
  long long absorbed;
  long long worker_ns[MM_PROF_MAX_WORKERS];
} mm_prof_row;

typedef struct {
  int id;
  long long start;
  long long child; /* ns spent in nested frames */
} mm_prof_frame;

typedef struct {
  int depth;
  int ids[MM_PROF_MAX_DEPTH];
  long long self_ns;
} mm_prof_fold;

/* Emitter fast-path state (see mm_prof.h). */
volatile int mm_prof_live = 0;
unsigned char *mm_prof_skip = 0;
long long *mm_prof_sentries = 0;
long long *mm_prof_siters = 0;

static int mm_prof_enabled = 0;
static int mm_prof_nspans = 0;
static mm_prof_row *mm_prof_rows = 0;
static mm_prof_frame mm_prof_stack[MM_PROF_MAX_DEPTH];
static int mm_prof_depth = 0;
/* Active parallel region (span id), -1 when none.  Set before the omp
 * region starts and cleared after it joins, so worker-side reads see a
 * stable value for the region's whole lifetime. */
static volatile int mm_prof_region = -1;
static long long mm_prof_t0 = 0;
static long long mm_prof_wall = -1;
static mm_prof_fold mm_prof_folds[MM_PROF_MAX_FOLDED];
static int mm_prof_nfolds = 0;

long long mm_prof_now(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (long long)ts.tv_sec * 1000000000LL + (long long)ts.tv_nsec;
}

/* Allocation attribution (mm_alloc_hook target): the active region's
 * row under an atomic add (workers allocate concurrently), else the
 * innermost open frame.  Bytes seen with neither stay unattributed and
 * are recovered at dump time as allocated-total minus attributed. */
static void mm_prof_on_alloc(long long bytes) {
  if (!mm_prof_enabled) return;
  int region = mm_prof_region;
  if (region >= 0 && region < mm_prof_nspans) {
#ifdef _OPENMP
#pragma omp atomic
#endif
    mm_prof_rows[region].alloc_bytes += bytes;
  } else if (mm_prof_depth > 0) {
    mm_prof_rows[mm_prof_stack[mm_prof_depth - 1].id].alloc_bytes += bytes;
  }
}

void mm_prof_init(void) {
  int nspans = mm_span_count();
  size_t n = nspans > 0 ? (size_t)nspans : 1;
  mm_prof_nspans = nspans;
  mm_prof_rows = calloc(n, sizeof(mm_prof_row));
  mm_prof_skip = calloc(n, 1);
  mm_prof_sentries = calloc(n, sizeof(long long));
  mm_prof_siters = calloc(n, sizeof(long long));
  if (!mm_prof_rows || !mm_prof_skip || !mm_prof_sentries || !mm_prof_siters) {
    mm_prof_rows = 0; /* no profiling, but the program still runs */
    return;
  }
  mm_prof_depth = 0;
  mm_prof_region = -1;
  mm_prof_nfolds = 0;
  mm_alloc_hook = mm_prof_on_alloc;
  mm_prof_t0 = mm_prof_now();
  mm_prof_enabled = 1;
  mm_prof_live = 1;
}

/* Fold the path [stack ids, bottom first, then [leaf]] with [self] ns.
 * [depth] is the number of stack entries below the leaf.  Loop bodies
 * close the same path over and over, so the last matched entry is
 * memoized and checked first; the linear scan only runs on a path
 * change. */
static int mm_prof_fold_last = -1;

static void mm_prof_fold_path(int depth, int leaf, long long self) {
  if (mm_prof_fold_last >= 0) {
    mm_prof_fold *fd = &mm_prof_folds[mm_prof_fold_last];
    if (fd->depth == depth + 1 && fd->ids[depth] == leaf) {
      int same = 1;
      for (int d = 0; d < depth; d++)
        if (fd->ids[d] != mm_prof_stack[d].id) {
          same = 0;
          break;
        }
      if (same) {
        fd->self_ns += self;
        return;
      }
    }
  }
  for (int e = 0; e < mm_prof_nfolds; e++) {
    if (mm_prof_folds[e].depth != depth + 1) continue;
    if (mm_prof_folds[e].ids[depth] != leaf) continue;
    int same = 1;
    for (int d = 0; d < depth; d++)
      if (mm_prof_folds[e].ids[d] != mm_prof_stack[d].id) {
        same = 0;
        break;
      }
    if (same) {
      mm_prof_folds[e].self_ns += self;
      mm_prof_fold_last = e;
      return;
    }
  }
  if (mm_prof_nfolds >= MM_PROF_MAX_FOLDED) return; /* drop the tail */
  mm_prof_fold *fd = &mm_prof_folds[mm_prof_nfolds];
  fd->depth = depth + 1;
  for (int d = 0; d < depth; d++) fd->ids[d] = mm_prof_stack[d].id;
  fd->ids[depth] = leaf;
  fd->self_ns = self;
  mm_prof_fold_last = mm_prof_nfolds++;
}

/* Fold the current open-stack path; the closing frame is the top. */
static void mm_prof_record_fold(long long self) {
  if (mm_prof_depth <= 0 || mm_prof_depth > MM_PROF_MAX_DEPTH) return;
  mm_prof_fold_path(mm_prof_depth - 1, mm_prof_stack[mm_prof_depth - 1].id,
                    self);
}

/* Span [id]'s clock has stopped for good once its row is frozen and no
 * frame of it is open: from then on, frozen children skipped inside it
 * land in an enclosing open frame instead, which is re-credited through
 * [id]'s own estimate.  Fix how many of their skipped executions [id]
 * absorbed. */
static void mm_prof_stop_absorbing(int id) {
  if (!mm_prof_rows[id].frozen) return;
  for (int d = 0; d < mm_prof_depth; d++)
    if (mm_prof_stack[d].id == id) return;
  for (int i = 0; i < mm_prof_nspans; i++) {
    mm_prof_row *c = &mm_prof_rows[i];
    if (i != id && c->frozen && c->parent == id && c->absorbed < 0)
      c->absorbed = mm_prof_sentries ? mm_prof_sentries[i] : 0;
  }
}

/* Close the top frame, charging self = total - child to its row and the
 * total to the parent's child time. */
static void mm_prof_close_top(long long iters, int dispatches, int par) {
  mm_prof_frame f = mm_prof_stack[mm_prof_depth - 1];
  long long total = mm_prof_now() - f.start;
  long long self = total - f.child;
  if (self < 0) self = 0;
  if (self > 0) mm_prof_record_fold(self);
  mm_prof_depth--;
  if (mm_prof_depth > 0) mm_prof_stack[mm_prof_depth - 1].child += total;
  mm_prof_row *r = &mm_prof_rows[f.id];
  mm_prof_stop_absorbing(f.id);
  r->entries++;
  r->total_ns += total;
  r->self_ns += self;
  r->iters += iters;
  r->dispatches += dispatches;
  if (par)
    r->par_ns += self;
  else
    r->seq_ns += self;
  if (r->entries >= MM_PROF_FREEZE_AFTER && !r->frozen) {
    r->frozen = 1;
    r->est_total = r->total_ns / r->entries;
    r->est_self = r->self_ns / r->entries;
    /* the fold entry this close just touched IS the span's hot path */
    r->fold_e = (self > 0) ? mm_prof_fold_last : -1;
    r->parent = mm_prof_depth > 0 ? mm_prof_stack[mm_prof_depth - 1].id : -1;
    r->absorbed = -1;
    if (mm_prof_skip) mm_prof_skip[f.id] = 1;
    mm_prof_stop_absorbing(f.id);
  }
}

/* A frozen span's execution: no frame was pushed, no clock was read.
 * Count it and charge the frozen per-close averages, crediting the
 * enclosing open frame's child time so parents don't absorb it. */
static void mm_prof_close_frozen(mm_prof_row *r, int id, long long iters,
                                 int dispatches, int par) {
  (void)id;
  r->entries++;
  r->total_ns += r->est_total;
  r->self_ns += r->est_self;
  r->frozen_self += r->est_self;
  r->iters += iters;
  r->dispatches += dispatches;
  if (par)
    r->par_ns += r->est_self;
  else
    r->seq_ns += r->est_self;
  if (mm_prof_depth > 0)
    mm_prof_stack[mm_prof_depth - 1].child += r->est_total;
}

void mm_prof_enter(int id) {
  if (!mm_prof_enabled || mm_prof_region >= 0) return;
  if (id < 0 || id >= mm_prof_nspans || mm_prof_depth >= MM_PROF_MAX_DEPTH)
    return;
  if (mm_prof_rows[id].frozen) return; /* counted at exit, no clock */
  mm_prof_frame *f = &mm_prof_stack[mm_prof_depth++];
  f->id = id;
  f->child = 0;
  f->start = mm_prof_now();
}

/* Find the matching open frame for [id] from the top down, or -1.  Exits
 * close everything above the match first (with zero counts), so a frame
 * leaked by an unusual control path heals instead of skewing parents. */
static int mm_prof_find(int id) {
  for (int i = mm_prof_depth - 1; i >= 0; i--)
    if (mm_prof_stack[i].id == id) return i;
  return -1;
}

void mm_prof_exit(int id, long long iters, int dispatches) {
  if (!mm_prof_enabled || mm_prof_region >= 0) return;
  if (id < 0 || id >= mm_prof_nspans) return;
  int at = mm_prof_find(id);
  if (at < 0) {
    mm_prof_row *r = &mm_prof_rows[id];
    if (r->frozen) mm_prof_close_frozen(r, id, iters, dispatches, 0);
    return;
  }
  while (mm_prof_depth - 1 > at) mm_prof_close_top(0, 0, 0);
  mm_prof_close_top(iters, dispatches, 0);
}

void mm_prof_enter_par(int id) {
  if (!mm_prof_enabled || mm_prof_region >= 0) return;
  if (id < 0 || id >= mm_prof_nspans) return;
#ifdef _OPENMP
  /* A frozen parallel span must still mark the region, or its workers
   * would hit the sequential probes concurrently. */
  if (mm_prof_rows[id].frozen) {
    if (omp_get_max_threads() > 1) {
      mm_prof_region = id;
      mm_prof_live = 0;
    }
    return;
  }
#endif
  mm_prof_enter(id);
#ifdef _OPENMP
  /* Only a real multi-thread dispatch suppresses nested frames: with
   * one thread the body profiles span by span, exactly like the
   * interpreter running pool-less. */
  if (omp_get_max_threads() > 1 && mm_prof_depth > 0 &&
      mm_prof_stack[mm_prof_depth - 1].id == id) {
    mm_prof_region = id;
    mm_prof_live = 0;
  }
#endif
}

void mm_prof_exit_par(int id, long long iters) {
  if (!mm_prof_enabled) return;
  int dispatched = (mm_prof_region == id);
  if (dispatched) {
    mm_prof_region = -1;
    mm_prof_live = 1;
  }
  if (mm_prof_region >= 0) return; /* nested inside another region */
  if (id < 0 || id >= mm_prof_nspans) return;
  int at = mm_prof_find(id);
  if (at < 0) {
    mm_prof_row *r = &mm_prof_rows[id];
    if (r->frozen)
      mm_prof_close_frozen(r, id, iters, dispatched ? 1 : 0, dispatched);
    return;
  }
  while (mm_prof_depth - 1 > at) mm_prof_close_top(0, 0, 0);
  mm_prof_close_top(iters, dispatched ? 1 : 0, dispatched);
}

void mm_prof_worker(int id, long long busy_ns) {
  if (!mm_prof_enabled || mm_prof_region != id) return;
  int w = 0;
#ifdef _OPENMP
  w = omp_get_thread_num();
#endif
  /* Distinct slot per thread id: no two threads write the same cell. */
  if (w >= 0 && w < MM_PROF_MAX_WORKERS)
    mm_prof_rows[id].worker_ns[w] += busy_ns;
}

/* Takes up to [ns] of estimated self time back from frozen span [id]
 * and, where its own does not cover it, from the frozen spans nested in
 * it at freeze time; their time is part of [id]'s total.  Returns the
 * time taken. */
static long long mm_prof_take_back(int id, long long ns, int depth) {
  mm_prof_row *r = &mm_prof_rows[id];
  long long taken = r->frozen_self < ns ? r->frozen_self : ns;
  if (taken < 0) taken = 0;
  r->self_ns -= taken;
  r->seq_ns -= taken;
  r->frozen_self -= taken;
  for (int i = 0; i < mm_prof_nspans && taken < ns && depth < MM_PROF_MAX_DEPTH;
       i++) {
    mm_prof_row *c = &mm_prof_rows[i];
    if (i != id && c->frozen && c->parent == id)
      taken += mm_prof_take_back(i, ns - taken, depth + 1);
  }
  r->total_ns -= taken;
  return taken;
}

void mm_prof_stop(void) {
  if (!mm_prof_enabled) return;
  mm_prof_live = 0;
  mm_prof_region = -1;
  while (mm_prof_depth > 0) mm_prof_close_top(0, 0, 0);
  /* Executions the emitted guards skipped entirely: extrapolate from
   * the frozen per-close averages, then re-credit the freeze-time parent
   * whose self time silently absorbed the skipped children's wall
   * clock. */
  long long *credit = calloc((size_t)mm_prof_nspans + 1, sizeof(long long));
  if (!credit) {
    fprintf(stderr, "mm_prof: out of memory\n");
    exit(70);
  }
  for (int i = 0; i < mm_prof_nspans; i++) {
    mm_prof_row *r = &mm_prof_rows[i];
    long long k = mm_prof_sentries ? mm_prof_sentries[i] : 0;
    if (k <= 0) continue;
    long long extra_self = r->est_self * k;
    r->entries += k;
    r->iters += mm_prof_siters[i];
    r->total_ns += r->est_total * k;
    r->self_ns += extra_self;
    r->seq_ns += extra_self;
    r->frozen_self += extra_self;
    credit[i] = r->est_total * (r->absorbed >= 0 ? r->absorbed : k);
    mm_prof_sentries[i] = 0;
    mm_prof_siters[i] = 0;
  }
  for (int i = 0; i < mm_prof_nspans; i++) {
    mm_prof_row *r = &mm_prof_rows[i];
    if (credit[i] <= 0 || r->parent < 0 || r->parent >= mm_prof_nspans)
      continue;
    mm_prof_row *pr = &mm_prof_rows[r->parent];
    /* The skipped executions ran inside the parent's open frames, so
     * the parent's measured self time bounds their real cost.  An
     * estimate above it is probe overhead that the timed closes paid
     * and the skipped ones did not: take the overdraft back from the
     * estimates of this span and of the spans nested in it rather than
     * clamping the parent at zero, which would count it twice. */
    long long extra_total = credit[i];
    long long over = extra_total - pr->self_ns;
    if (over > 0) extra_total -= mm_prof_take_back(i, over, 0);
    pr->self_ns -= extra_total;
    if (pr->self_ns < 0) pr->self_ns = 0;
    pr->seq_ns -= extra_total;
    if (pr->seq_ns < 0) pr->seq_ns = 0;
  }
  free(credit);
  /* Frozen spans skipped per-close fold updates; credit the self time
   * they accumulated to the hot path captured at freeze time. */
  for (int i = 0; i < mm_prof_nspans; i++) {
    mm_prof_row *r = &mm_prof_rows[i];
    if (r->frozen && r->frozen_self > 0 && r->fold_e >= 0 &&
        r->fold_e < mm_prof_nfolds)
      mm_prof_folds[r->fold_e].self_ns += r->frozen_self;
  }
  mm_prof_wall = mm_prof_now() - mm_prof_t0;
  mm_prof_enabled = 0;
}

static void mm_prof_json_string(FILE *f, const char *s) {
  fputc('"', f);
  for (; *s; s++) {
    if (*s == '"' || *s == '\\') fputc('\\', f);
    fputc(*s, f);
  }
  fputc('"', f);
}

void mm_prof_dump(void) {
  if (!mm_prof_rows) return;
  if (mm_prof_enabled) mm_prof_stop();
  FILE *f = stdout;
  long long attributed = 0, attr_alloc = 0;
  for (int i = 0; i < mm_prof_nspans; i++) {
    attributed += mm_prof_rows[i].self_ns;
    attr_alloc += mm_prof_rows[i].alloc_bytes;
  }
  fprintf(f,
          "__mm_profile {\"wall_ns\":%lld,\"attributed_ns\":%lld,"
          "\"spans\":[",
          mm_prof_wall < 0 ? 0 : mm_prof_wall, attributed);
  int first = 1;
  for (int i = 0; i < mm_prof_nspans; i++) {
    mm_prof_row *r = &mm_prof_rows[i];
    /* Every span that was ever entered is reported, even with ~0 ns:
     * the interp-vs-native differential checks span-set containment. */
    if (r->entries == 0) continue;
    if (!first) fputc(',', f);
    first = 0;
    fputs("{\"span\":", f);
    const char *name = mm_span_name(i);
    mm_prof_json_string(f, name ? name : "?");
    fprintf(f,
            ",\"total_ns\":%lld,\"self_ns\":%lld,\"iters\":%lld,"
            "\"dispatches\":%lld,\"par_ns\":%lld,\"seq_ns\":%lld,"
            "\"alloc_bytes\":%lld,\"workers\":{",
            r->total_ns, r->self_ns, r->iters, r->dispatches, r->par_ns,
            r->seq_ns, r->alloc_bytes);
    int wfirst = 1;
    for (int w = 0; w < MM_PROF_MAX_WORKERS; w++) {
      if (r->worker_ns[w] == 0) continue;
      if (!wfirst) fputc(',', f);
      wfirst = 0;
      fprintf(f, "\"%d\":%lld", w, r->worker_ns[w]);
    }
    fputs("}}", f);
  }
  fputs("],\"folded\":[", f);
  for (int e = 0; e < mm_prof_nfolds; e++) {
    if (e > 0) fputc(',', f);
    fputs("{\"stack\":\"", f);
    for (int d = 0; d < mm_prof_folds[e].depth; d++) {
      if (d > 0) fputc(';', f);
      int id = mm_prof_folds[e].ids[d];
      const char *name = mm_span_name(id);
      if (!name) name = "?";
      /* span strings are "line:col-..." — never need JSON escapes */
      fputs(name, f);
    }
    fprintf(f, "\",\"self_ns\":%lld}", mm_prof_folds[e].self_ns);
  }
  long long total_alloc = mm_allocated_bytes();
  long long unattributed = total_alloc - attr_alloc;
  if (unattributed < 0) unattributed = 0;
  fprintf(f,
          "],\"memory\":{\"allocated_bytes\":%lld,\"peak_bytes\":%lld,"
          "\"live_bytes\":%lld,\"unattributed_alloc_bytes\":%lld}}\n",
          total_alloc, mm_peak_bytes(), mm_live_bytes(), unattributed);
}
