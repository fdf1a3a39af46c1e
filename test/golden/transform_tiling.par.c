/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
mm_float rowMean(mm_mat_float2 *grid, int i);

mm_float rowMean(mm_mat_float2 *grid, int i) {
  int n = grid->dims[1];
  mm_float __mm_acc2 = 0.0;
  for (int k = 0; k < n; k++) {
    __mm_acc2 = __mm_acc2 + grid->data[i * grid->dims[1] + k];
  }
  mm_float total = __mm_acc2;
  mm_float __mm_ret3 = total / (mm_float) n;
  return __mm_ret3;
}

int main(void) {
  int m = 32;
  int n = 32;
  mm_mat_float2 *__mm_initm4 = mm_alloc_float(2, m, n);
  mm_mat_float2 *grid = __mm_initm4;
  mm_mat_float2 *__mm_gen5 = mm_alloc_float(2, m, n);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_gen5->data[i * n + j] = 0.5;
    }
  }
  mm_rc_dec(grid);
  grid = __mm_gen5;
  mm_mat_float2 *__mm_initm8 = mm_alloc_float(2, m, n);
  mm_mat_float2 *scaled = __mm_initm8;
  mm_mat_float2 *__mm_gen9 = mm_alloc_float(2, m, n);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    for (int jin = 0; jin < 4; jin++) {
      for (int jout = 0; jout < n / 4; jout++) {
        __mm_gen9->data[i * n + (jout * 4 + jin)] = grid->data[i * grid->dims[1] + (jout * 4 + jin)] + 1.0;
      }
    }
    for (int __mm_rem_j = 0; __mm_rem_j < n - n / 4 * 4; __mm_rem_j++) {
      __mm_gen9->data[i * n + (n / 4 * 4 + __mm_rem_j)] = grid->data[i * grid->dims[1] + (n / 4 * 4 + __mm_rem_j)] + 1.0;
    }
  }
  mm_rc_dec(scaled);
  scaled = __mm_gen9;
  mm_mat_float2 *__mm_slice12 = mm_alloc_float(2, scaled->dims[0], scaled->dims[1]);
  for (int __mm_o13 = 0; __mm_o13 < scaled->dims[0]; __mm_o13++) {
    for (int __mm_o14 = 0; __mm_o14 < scaled->dims[1]; __mm_o14++) {
      __mm_slice12->data[__mm_o13 * scaled->dims[1] + __mm_o14] = scaled->data[__mm_o13 * scaled->dims[1] + __mm_o14];
    }
  }
  mm_mat_float2 *view = __mm_slice12;
  mm_float __mm_acc15 = 0.0;
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_acc15 = __mm_acc15 + view->data[i * view->dims[1] + j];
    }
  }
  mm_float total = __mm_acc15;
  mm_mat_float1 *__mm_initm16 = mm_alloc_float(1, m);
  mm_mat_float1 *means = __mm_initm16;
  mm_mat_float1 *__mm_gen17 = mm_alloc_float(1, m);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    __mm_gen17->data[i] = rowMean(grid, i);
  }
  mm_rc_dec(means);
  means = __mm_gen17;
  int __mm_ret20 = (int) (total + means->data[0]);
  mm_rc_dec(means);
  mm_rc_dec(view);
  mm_rc_dec(scaled);
  mm_rc_dec(grid);
  return __mm_ret20;
}
