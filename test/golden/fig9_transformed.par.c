/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
#include "mm_simd.h"
#define MM_NSPANS 5
const char *const mm_spans[] = {
  "3:3-48",
  "7:3-56",
  "8:3-13:28",
  "8:11-10:68",
  "14:3-35",
};

int main(void) {
  mm_mat_float3 *__mm_rd0 = mm_read_matrix("ssh.data", 0);
  mm_mat_float3 *mat = __mm_rd0;
  int m = mat->dims[0];
  int n = mat->dims[1];
  int p = mat->dims[2];
  mm_mat_float2 *__mm_initm1 = mm_calloc_float(1, 2, m, n);
  mm_mat_float2 *means = __mm_initm1;
  __m128 __mm_vc0 = _mm_set1_ps(0.0);
  __m128 __mm_vc1 = _mm_set1_ps((mm_float) p);
  mm_mat_float2 *__mm_gen2 = mm_alloc_float(2, 2, m, n);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    for (int jout = 0; jout < n / 4; jout++) {
      /* vectorized jin: 4 x f32 SSE lanes */
      __m128 __mm_acc3 = __mm_vc0;
      for (int k = 0; k < p; k++) {
        __mm_acc3 = _mm_add_ps(__mm_acc3, _mm_set_ps(mat->data[(i * mat->dims[1] + jout * 4) * mat->dims[2] + k + 3 * mat->dims[2]], mat->data[(i * mat->dims[1] + jout * 4) * mat->dims[2] + k + 2 * mat->dims[2]], mat->data[(i * mat->dims[1] + jout * 4) * mat->dims[2] + k + mat->dims[2]], mat->data[(i * mat->dims[1] + jout * 4) * mat->dims[2] + k]));
      }
      mm_scatter_ps(__mm_gen2->data, i * n + jout * 4, 1, _mm_div_ps(__mm_acc3, __mm_vc1));
    }
    for (int __mm_rem_j = 0; __mm_rem_j < n - n / 4 * 4; __mm_rem_j++) {
      mm_float __mm_acc3 = 0.0;
      for (int k = 0; k < p; k++) {
        __mm_acc3 = __mm_acc3 + mat->data[(i * mat->dims[1] + (n / 4 * 4 + __mm_rem_j)) * mat->dims[2] + k];
      }
      __mm_gen2->data[i * n + (n / 4 * 4 + __mm_rem_j)] = mm_div(__mm_acc3, (mm_float) p, 3);
    }
  }
  mm_rc_dec(means);
  means = __mm_gen2;
  mm_write_matrix("means.data", means, 4);
  mm_rc_dec(means);
  mm_rc_dec(mat);
  return 0;
}
