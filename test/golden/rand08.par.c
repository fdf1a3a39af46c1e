/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
mm_float rowSum(mm_mat_float2 *g, int i);

mm_float rowSum(mm_mat_float2 *g, int i) {
  int n = g->dims[1];
  mm_float __mm_acc2 = 0.0;
  for (int k = 0; k < n; k++) {
    __mm_acc2 = __mm_acc2 + (g->data[i * g->dims[1] + k] + 1.1);
  }
  return __mm_acc2;
}

int main(void) {
  int m = 7;
  int n = 4;
  mm_mat_float2 *__mm_initm3 = mm_alloc_float(2, m, n);
  mm_mat_float2 *g = __mm_initm3;
  mm_mat_float2 *__mm_gen4 = mm_alloc_float(2, m, n);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_gen4->data[i * n + j] = (mm_float) (i + j);
    }
  }
  mm_rc_dec(g);
  g = __mm_gen4;
  mm_mat_float1 *__mm_initm7 = mm_alloc_float(1, m);
  mm_mat_float1 *sums = __mm_initm7;
  mm_mat_float1 *__mm_gen8 = mm_alloc_float(1, m);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    __mm_gen8->data[i] = rowSum(g, i);
  }
  mm_rc_dec(sums);
  sums = __mm_gen8;
  mm_float __mm_acc11 = 0.0;
  for (int i = 0; i < m; i++) {
    __mm_acc11 = __mm_acc11 + sums->data[i];
  }
  int __mm_ret12 = (int) __mm_acc11;
  mm_rc_dec(sums);
  mm_rc_dec(g);
  return __mm_ret12;
}
