/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
#define MM_NSPANS 3
const char *const mm_spans[] = {
  "5:3-52",
  "6:3-7:28",
  "9:56-66",
};

int main(void) {
  int m = 6;
  int n = 7;
  mm_mat_float2 *__mm_initm0 = mm_calloc_float(0, 2, m, n);
  mm_mat_float2 *g = __mm_initm0;
  mm_mat_float2 *__mm_gen1 = mm_alloc_float(1, 2, m, n);
  for (int i = 0; i < m; i++) {
    #pragma omp parallel for
    for (int j = 0; j < n; j++) {
      __mm_gen1->data[i * n + j] = (mm_float) (i * n + j);
    }
  }
  mm_rc_dec(g);
  g = __mm_gen1;
  mm_rc_inc(g);
  mm_mat_float2 *view = g;
  mm_float __mm_acc7 = 0.0;
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_acc7 = __mm_acc7 + view->data[(MM_BOUND(view, 0, i, 2), MM_BOUND(view, 1, j, 2), i * view->dims[1] + j)] * 0.7;
    }
  }
  mm_float t = __mm_acc7;
  int __mm_ret8 = (int) t;
  mm_rc_dec(view);
  mm_rc_dec(g);
  return __mm_ret8;
}
