/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
mm_float seriesMean(mm_mat_float3 *mat, int i, int j);

#define MM_NSPANS 6
const char *const mm_spans[] = {
  "3:25-37",
  "6:3-19",
  "10:3-48",
  "13:3-56",
  "16:7-18",
  "19:3-35",
};

mm_float seriesMean(mm_mat_float3 *mat, int i, int j) {
  MM_NOT_NULL(mat, 0);
  MM_BOUND(mat, 0, i, 0);
  MM_BOUND(mat, 1, j, 0);
  int p = mat->dims[2];
  mm_float __mm_acc2 = 0.0;
  for (int k = 0; k < p; k++) {
    __mm_acc2 = __mm_acc2 + mat->data[(i * mat->dims[1] + j) * mat->dims[2] + k];
  }
  mm_float total = __mm_acc2;
  mm_float __mm_ret3 = mm_div(total, (mm_float) p, 1);
  return __mm_ret3;
}

int main(void) {
  mm_mat_float3 *__mm_rd4 = mm_read_matrix("ssh.data", 2);
  mm_mat_float3 *mat = __mm_rd4;
  int m = mat->dims[0];
  int n = mat->dims[1];
  mm_mat_float2 *__mm_initm5 = mm_calloc_float(3, 2, m, n);
  mm_mat_float2 *means = __mm_initm5;
  {
    int i = 0;
    while (i < m) {
      {
        int j = 0;
        while (j < n) {
          MM_BOUND(means, 0, i, 4);
          MM_BOUND(means, 1, j, 4);
          means->data[i * means->dims[1] + j] = seriesMean(mat, i, j);
          j = j + 1;
        }
      }
      i = i + 1;
    }
  }
  mm_write_matrix("means.data", means, 5);
  mm_rc_dec(means);
  mm_rc_dec(mat);
  return 0;
}
