/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
mm_float seriesMean(mm_mat_float3 *mat, int i, int j);

#define MM_NSPANS 14
const char *const mm_spans[] = {
  "3:3-37",
  "3:25-37",
  "4:3-25",
  "5:3-60",
  "5:17-60",
  "6:3-19",
  "10:3-48",
  "11:3-26",
  "12:3-26",
  "13:3-56",
  "14:3-18:4",
  "16:7-18",
  "19:3-35",
  "20:3-11",
};

mm_float seriesMean(mm_mat_float3 *mat, int i, int j) {
  int __mm_crumb0 = mm_crumb_push(0);
  MM_NOT_NULL(mat, 1);
  MM_BOUND(mat, 0, i, 1);
  MM_BOUND(mat, 1, j, 1);
  mm_crumb_pop(__mm_crumb0);
  int __mm_crumb1 = mm_crumb_push(2);
  int p = mat->dims[2];
  mm_crumb_pop(__mm_crumb1);
  int __mm_crumb2 = mm_crumb_push(3);
  mm_float __mm_acc2 = 0.0;
  int __mm_crumb3 = mm_crumb_push(4);
  for (int k = 0; k < p; k++) {
    __mm_acc2 = __mm_acc2 + mat->data[(i * mat->dims[1] + j) * mat->dims[2] + k];
  }
  mm_crumb_pop(__mm_crumb3);
  mm_float total = __mm_acc2;
  mm_crumb_pop(__mm_crumb2);
  int __mm_crumb4 = mm_crumb_push(5);
  mm_float __mm_ret3 = total / (mm_float) p;
  mm_crumb_pop(__mm_crumb4);
  return __mm_ret3;
}

int main(void) {
  int __mm_crumb5 = mm_crumb_push(6);
  mm_mat_float3 *__mm_rd4 = mm_read_matrix("ssh.data");
  mm_mat_float3 *mat = __mm_rd4;
  mm_crumb_pop(__mm_crumb5);
  int __mm_crumb6 = mm_crumb_push(7);
  int m = mat->dims[0];
  mm_crumb_pop(__mm_crumb6);
  int __mm_crumb7 = mm_crumb_push(8);
  int n = mat->dims[1];
  mm_crumb_pop(__mm_crumb7);
  int __mm_crumb8 = mm_crumb_push(9);
  mm_mat_float2 *__mm_initm5 = mm_calloc_float(2, m, n);
  mm_mat_float2 *means = __mm_initm5;
  mm_crumb_pop(__mm_crumb8);
  int __mm_crumb9 = mm_crumb_push(10);
  {
    int i = 0;
    while (i < m) {
      {
        int j = 0;
        while (j < n) {
          MM_BOUND(means, 0, i, 11);
          MM_BOUND(means, 1, j, 11);
          means->data[i * means->dims[1] + j] = seriesMean(mat, i, j);
          j = j + 1;
        }
      }
      i = i + 1;
    }
  }
  mm_crumb_pop(__mm_crumb9);
  int __mm_crumb10 = mm_crumb_push(12);
  mm_write_matrix("means.data", means);
  mm_crumb_pop(__mm_crumb10);
  int __mm_crumb11 = mm_crumb_push(13);
  mm_rc_dec(means);
  mm_rc_dec(mat);
  mm_crumb_pop(__mm_crumb11);
  return 0;
}
