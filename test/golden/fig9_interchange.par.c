/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
#define MM_NSPANS 5
const char *const mm_spans[] = {
  "3:3-48",
  "7:3-56",
  "8:3-11:31",
  "8:11-10:68",
  "12:3-35",
};

int main(void) {
  mm_mat_float3 *__mm_rd0 = mm_read_matrix("ssh.data", 0);
  mm_mat_float3 *mat = __mm_rd0;
  int m = mat->dims[0];
  int n = mat->dims[1];
  int p = mat->dims[2];
  mm_mat_float2 *__mm_initm1 = mm_calloc_float(1, 2, m, n);
  mm_mat_float2 *means = __mm_initm1;
  mm_mat_float2 *__mm_gen2 = mm_alloc_float(2, 2, m, n);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      mm_float __mm_acc3 = 0.0;
      for (int k = 0; k < p; k++) {
        __mm_acc3 = __mm_acc3 + mat->data[(i * mat->dims[1] + j) * mat->dims[2] + k];
      }
      __mm_gen2->data[i * n + j] = mm_div(__mm_acc3, (mm_float) p, 3);
    }
  }
  mm_rc_dec(means);
  means = __mm_gen2;
  mm_write_matrix("means.data", means, 4);
  mm_rc_dec(means);
  mm_rc_dec(mat);
  return 0;
}
