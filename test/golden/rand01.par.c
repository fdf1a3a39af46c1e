/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
#define MM_NSPANS 10
const char *const mm_spans[] = {
  "3:3-12",
  "4:3-12",
  "5:3-52",
  "6:3-7:31",
  "6:7-74",
  "8:3-34",
  "9:3-74",
  "9:13-74",
  "9:56-66",
  "10:3-17",
};

int main(void) {
  int __mm_crumb0 = mm_crumb_push(0);
  int m = 7;
  mm_crumb_pop(__mm_crumb0);
  int __mm_crumb1 = mm_crumb_push(1);
  int n = 5;
  mm_crumb_pop(__mm_crumb1);
  int __mm_crumb2 = mm_crumb_push(2);
  mm_mat_float2 *__mm_initm0 = mm_calloc_float(2, m, n);
  mm_mat_float2 *g = __mm_initm0;
  mm_crumb_pop(__mm_crumb2);
  int __mm_crumb3 = mm_crumb_push(3);
  mm_mat_float2 *__mm_gen1 = mm_alloc_float(2, m, n);
  int __mm_crumb4 = mm_crumb_push(4);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_gen1->data[i * n + j] = (mm_float) (i * n + j);
    }
  }
  mm_crumb_pop(__mm_crumb4);
  mm_rc_dec(g);
  g = __mm_gen1;
  mm_crumb_pop(__mm_crumb3);
  int __mm_crumb5 = mm_crumb_push(5);
  mm_rc_inc(g);
  mm_mat_float2 *view = g;
  mm_crumb_pop(__mm_crumb5);
  int __mm_crumb6 = mm_crumb_push(6);
  mm_float __mm_acc7 = 0.0;
  int __mm_crumb7 = mm_crumb_push(7);
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_acc7 = __mm_acc7 + (view->data[(MM_BOUND(view, 0, i, 8), MM_BOUND(view, 1, j, 8), i * view->dims[1] + j)] - 2.9);
    }
  }
  mm_crumb_pop(__mm_crumb7);
  mm_float t = __mm_acc7;
  mm_crumb_pop(__mm_crumb6);
  int __mm_crumb8 = mm_crumb_push(9);
  int __mm_ret8 = (int) t;
  mm_rc_dec(view);
  mm_rc_dec(g);
  mm_crumb_pop(__mm_crumb8);
  return __mm_ret8;
}
