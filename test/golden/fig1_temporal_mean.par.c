/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
#define MM_NSPANS 10
const char *const mm_spans[] = {
  "3:3-48",
  "4:3-26",
  "5:3-26",
  "6:3-26",
  "7:3-56",
  "8:3-10:68",
  "8:11-10:68",
  "10:14-62",
  "11:3-35",
  "12:3-11",
};

int main(void) {
  int __mm_crumb0 = mm_crumb_push(0);
  mm_mat_float3 *__mm_rd0 = mm_read_matrix("ssh.data");
  mm_mat_float3 *mat = __mm_rd0;
  mm_crumb_pop(__mm_crumb0);
  int __mm_crumb1 = mm_crumb_push(1);
  int m = mat->dims[0];
  mm_crumb_pop(__mm_crumb1);
  int __mm_crumb2 = mm_crumb_push(2);
  int n = mat->dims[1];
  mm_crumb_pop(__mm_crumb2);
  int __mm_crumb3 = mm_crumb_push(3);
  int p = mat->dims[2];
  mm_crumb_pop(__mm_crumb3);
  int __mm_crumb4 = mm_crumb_push(4);
  mm_mat_float2 *__mm_initm1 = mm_calloc_float(2, m, n);
  mm_mat_float2 *means = __mm_initm1;
  mm_crumb_pop(__mm_crumb4);
  int __mm_crumb5 = mm_crumb_push(5);
  mm_mat_float2 *__mm_gen2 = mm_alloc_float(2, m, n);
  int __mm_crumb6 = mm_crumb_push(6);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      mm_float __mm_acc3 = 0.0;
      int __mm_crumb7 = mm_crumb_push(7);
      for (int k = 0; k < p; k++) {
        __mm_acc3 = __mm_acc3 + mat->data[(i * mat->dims[1] + j) * mat->dims[2] + k];
      }
      mm_crumb_pop(__mm_crumb7);
      __mm_gen2->data[i * n + j] = __mm_acc3 / (mm_float) p;
    }
  }
  mm_crumb_pop(__mm_crumb6);
  mm_rc_dec(means);
  means = __mm_gen2;
  mm_crumb_pop(__mm_crumb5);
  int __mm_crumb8 = mm_crumb_push(8);
  mm_write_matrix("means.data", means);
  mm_crumb_pop(__mm_crumb8);
  int __mm_crumb9 = mm_crumb_push(9);
  mm_rc_dec(means);
  mm_rc_dec(mat);
  mm_crumb_pop(__mm_crumb9);
  return 0;
}
