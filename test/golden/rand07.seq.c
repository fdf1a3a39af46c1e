/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
int main(void) {
  int m = 6;
  int n = 7;
  mm_mat_float2 *__mm_initm0 = mm_alloc_float(2, m, n);
  mm_mat_float2 *g = __mm_initm0;
  mm_mat_float2 *__mm_gen1 = mm_alloc_float(2, m, n);
  for (int i = 0; i < m; i++) {
    #pragma omp parallel for
    for (int j = 0; j < n; j++) {
      __mm_gen1->data[i * n + j] = (mm_float) (i * n + j);
    }
  }
  mm_rc_dec(g);
  g = __mm_gen1;
  mm_mat_float2 *__mm_slice4 = mm_alloc_float(2, g->dims[0], g->dims[1]);
  for (int __mm_o5 = 0; __mm_o5 < g->dims[0]; __mm_o5++) {
    for (int __mm_o6 = 0; __mm_o6 < g->dims[1]; __mm_o6++) {
      __mm_slice4->data[__mm_o5 * g->dims[1] + __mm_o6] = g->data[__mm_o5 * g->dims[1] + __mm_o6];
    }
  }
  mm_mat_float2 *view = __mm_slice4;
  mm_float __mm_acc7 = 0.0;
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_acc7 = __mm_acc7 + view->data[i * view->dims[1] + j] * 0.7;
    }
  }
  mm_float t = __mm_acc7;
  int __mm_ret8 = (int) t;
  mm_rc_dec(view);
  mm_rc_dec(g);
  return __mm_ret8;
}
