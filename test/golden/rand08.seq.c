/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
mm_float rowSum(mm_mat_float2 *g, int i);

#define MM_NSPANS 6
const char *const mm_spans[] = {
  "3:26-33",
  "11:3-52",
  "12:3-69",
  "13:3-52",
  "14:3-62",
  "15:53-60",
};

mm_float rowSum(mm_mat_float2 *g, int i) {
  MM_NOT_NULL(g, 0);
  MM_BOUND(g, 0, i, 0);
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
  mm_mat_float2 *__mm_initm3 = mm_calloc_float(1, 2, m, n);
  mm_mat_float2 *g = __mm_initm3;
  mm_mat_float2 *__mm_gen4 = mm_alloc_float(2, 2, m, n);
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_gen4->data[i * n + j] = (mm_float) (i + j);
    }
  }
  mm_rc_dec(g);
  g = __mm_gen4;
  mm_mat_float1 *__mm_initm7 = mm_calloc_float(3, 1, m);
  mm_mat_float1 *sums = __mm_initm7;
  mm_mat_float1 *__mm_gen8 = mm_alloc_float(4, 1, m);
  for (int i = 0; i < m; i++) {
    __mm_gen8->data[i] = rowSum(g, i);
  }
  mm_rc_dec(sums);
  sums = __mm_gen8;
  mm_float __mm_acc11 = 0.0;
  for (int i = 0; i < m; i++) {
    __mm_acc11 = __mm_acc11 + sums->data[(MM_BOUND(sums, 0, i, 5), i)];
  }
  int __mm_ret12 = (int) __mm_acc11;
  mm_rc_dec(sums);
  mm_rc_dec(g);
  return __mm_ret12;
}
