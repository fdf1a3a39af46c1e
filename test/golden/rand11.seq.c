/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
mm_float rowSum(mm_mat_float2 *g, int i);

#define MM_NSPANS 16
const char *const mm_spans[] = {
  "3:3-33",
  "3:26-33",
  "4:3-26",
  "5:3-61",
  "5:10-61",
  "9:3-12",
  "10:3-12",
  "11:3-52",
  "12:3-69",
  "12:7-69",
  "13:3-52",
  "14:3-62",
  "14:10-62",
  "15:3-62",
  "15:16-61",
  "15:53-60",
};

mm_float rowSum(mm_mat_float2 *g, int i) {
  int __mm_crumb0 = mm_crumb_push(0);
  MM_NOT_NULL(g, 1);
  MM_BOUND(g, 0, i, 1);
  mm_crumb_pop(__mm_crumb0);
  int __mm_crumb1 = mm_crumb_push(2);
  int n = g->dims[1];
  mm_crumb_pop(__mm_crumb1);
  int __mm_crumb2 = mm_crumb_push(3);
  mm_float __mm_acc2 = 0.0;
  int __mm_crumb3 = mm_crumb_push(4);
  for (int k = 0; k < n; k++) {
    __mm_acc2 = __mm_acc2 + (g->data[i * g->dims[1] + k] + 2.1);
  }
  mm_crumb_pop(__mm_crumb3);
  mm_crumb_pop(__mm_crumb2);
  return __mm_acc2;
}

int main(void) {
  int __mm_crumb4 = mm_crumb_push(5);
  int m = 5;
  mm_crumb_pop(__mm_crumb4);
  int __mm_crumb5 = mm_crumb_push(6);
  int n = 6;
  mm_crumb_pop(__mm_crumb5);
  int __mm_crumb6 = mm_crumb_push(7);
  mm_mat_float2 *__mm_initm3 = mm_calloc_float(2, m, n);
  mm_mat_float2 *g = __mm_initm3;
  mm_crumb_pop(__mm_crumb6);
  int __mm_crumb7 = mm_crumb_push(8);
  mm_mat_float2 *__mm_gen4 = mm_alloc_float(2, m, n);
  int __mm_crumb8 = mm_crumb_push(9);
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_gen4->data[i * n + j] = (mm_float) (i * j);
    }
  }
  mm_crumb_pop(__mm_crumb8);
  mm_rc_dec(g);
  g = __mm_gen4;
  mm_crumb_pop(__mm_crumb7);
  int __mm_crumb9 = mm_crumb_push(10);
  mm_mat_float1 *__mm_initm7 = mm_calloc_float(1, m);
  mm_mat_float1 *sums = __mm_initm7;
  mm_crumb_pop(__mm_crumb9);
  int __mm_crumb10 = mm_crumb_push(11);
  mm_mat_float1 *__mm_gen8 = mm_alloc_float(1, m);
  int __mm_crumb11 = mm_crumb_push(12);
  for (int i = 0; i < m; i++) {
    __mm_gen8->data[i] = rowSum(g, i);
  }
  mm_crumb_pop(__mm_crumb11);
  mm_rc_dec(sums);
  sums = __mm_gen8;
  mm_crumb_pop(__mm_crumb10);
  int __mm_crumb12 = mm_crumb_push(13);
  mm_float __mm_acc11 = 0.0;
  int __mm_crumb13 = mm_crumb_push(14);
  for (int i = 0; i < m; i++) {
    __mm_acc11 = __mm_acc11 + sums->data[(MM_BOUND(sums, 0, i, 15), i)];
  }
  mm_crumb_pop(__mm_crumb13);
  int __mm_ret12 = (int) __mm_acc11;
  mm_rc_dec(sums);
  mm_rc_dec(g);
  mm_crumb_pop(__mm_crumb12);
  return __mm_ret12;
}
