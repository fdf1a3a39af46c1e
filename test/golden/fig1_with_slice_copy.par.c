/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
mm_float seriesMean(mm_mat_float3 *mat, int i, int j);

mm_float seriesMean(mm_mat_float3 *mat, int i, int j) {
  int p = mat->dims[2];
  mm_float __mm_acc2 = 0.0;
  for (int k = 0; k < p; k++) {
    __mm_acc2 = __mm_acc2 + mat->data[(i * mat->dims[1] + j) * mat->dims[2] + k];
  }
  mm_float total = __mm_acc2;
  mm_float __mm_ret3 = total / (mm_float) p;
  return __mm_ret3;
}

int main(void) {
  mm_mat_float3 *__mm_rd4 = mm_read_matrix("ssh.data");
  mm_mat_float3 *mat = __mm_rd4;
  int m = mat->dims[0];
  int n = mat->dims[1];
  mm_mat_float2 *__mm_initm5 = mm_alloc_float(2, m, n);
  mm_mat_float2 *means = __mm_initm5;
  {
    int i = 0;
    while (i < m) {
      {
        int j = 0;
        while (j < n) {
          means->data[i * means->dims[1] + j] = seriesMean(mat, i, j);
          j = j + 1;
        }
      }
      i = i + 1;
    }
  }
  mm_write_matrix("means.data", means);
  mm_rc_dec(means);
  mm_rc_dec(mat);
  return 0;
}
