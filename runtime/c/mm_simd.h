/* mm_simd — the simulated-SSE vector API (Fig 11) that vectorized
 * loops emitted by mmc call.  Only programs with vector code include it
 * (and the runtime's own mm_runtime.c, which defines the out-of-line
 * helpers below): <xmmintrin.h> costs every compile that parses it.
 *
 * Lanes are genuine 32-bit floats: the interpreter rounds every vector
 * load/op/store through single precision, and the horizontal sum
 * accumulates the four lanes in double, in lane order.
 */
#ifndef MM_SIMD_H
#define MM_SIMD_H

#include "mm_runtime.h"

/* With real SSE the intrinsics come from xmmintrin.h; elsewhere a plain
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

#endif /* MM_SIMD_H */
