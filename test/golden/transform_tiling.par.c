/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
mm_float rowMean(mm_mat_float2 *grid, int i);

#define MM_NSPANS 11
const char *const mm_spans[] = {
  "14:26-36",
  "17:3-19",
  "23:3-55",
  "24:3-62",
  "29:3-57",
  "30:3-32:36",
  "30:59-69",
  "37:60-70",
  "39:3-53",
  "40:3-67",
  "42:24-32",
};

mm_float rowMean(mm_mat_float2 *grid, int i) {
  MM_NOT_NULL(grid, 0);
  MM_BOUND(grid, 0, i, 0);
  int n = grid->dims[1];
  mm_float __mm_acc2 = 0.0;
  for (int k = 0; k < n; k++) {
    __mm_acc2 = __mm_acc2 + grid->data[i * grid->dims[1] + k];
  }
  mm_float total = __mm_acc2;
  mm_float __mm_ret3 = mm_div(total, (mm_float) n, 1);
  return __mm_ret3;
}

int main(void) {
  int m = 32;
  int n = 32;
  mm_mat_float2 *__mm_initm4 = mm_calloc_float(2, 2, m, n);
  mm_mat_float2 *grid = __mm_initm4;
  mm_mat_float2 *__mm_gen5 = mm_alloc_float(3, 2, m, n);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_gen5->data[i * n + j] = 0.5;
    }
  }
  mm_rc_dec(grid);
  grid = __mm_gen5;
  mm_mat_float2 *__mm_initm8 = mm_calloc_float(4, 2, m, n);
  mm_mat_float2 *scaled = __mm_initm8;
  mm_mat_float2 *__mm_gen9 = mm_alloc_float(5, 2, m, n);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    for (int jin = 0; jin < 4; jin++) {
      for (int jout = 0; jout < n / 4; jout++) {
        __mm_gen9->data[i * n + (jout * 4 + jin)] = grid->data[(MM_BOUND(grid, 0, i, 6), MM_BOUND(grid, 1, jout * 4 + jin, 6), i * grid->dims[1] + (jout * 4 + jin))] + 1.0;
      }
    }
    for (int __mm_rem_j = 0; __mm_rem_j < n - n / 4 * 4; __mm_rem_j++) {
      __mm_gen9->data[i * n + (n / 4 * 4 + __mm_rem_j)] = grid->data[(MM_BOUND(grid, 0, i, 6), MM_BOUND(grid, 1, n / 4 * 4 + __mm_rem_j, 6), i * grid->dims[1] + (n / 4 * 4 + __mm_rem_j))] + 1.0;
    }
  }
  mm_rc_dec(scaled);
  scaled = __mm_gen9;
  mm_rc_inc(scaled);
  mm_mat_float2 *view = scaled;
  mm_float __mm_acc15 = 0.0;
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_acc15 = __mm_acc15 + view->data[(MM_BOUND(view, 0, i, 7), MM_BOUND(view, 1, j, 7), i * view->dims[1] + j)];
    }
  }
  mm_float total = __mm_acc15;
  mm_mat_float1 *__mm_initm16 = mm_calloc_float(8, 1, m);
  mm_mat_float1 *means = __mm_initm16;
  mm_mat_float1 *__mm_gen17 = mm_alloc_float(9, 1, m);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    __mm_gen17->data[i] = rowMean(grid, i);
  }
  mm_rc_dec(means);
  means = __mm_gen17;
  int __mm_ret20 = (int) (total + means->data[(MM_BOUND(means, 0, 0, 10), 0)]);
  mm_rc_dec(means);
  mm_rc_dec(view);
  mm_rc_dec(scaled);
  mm_rc_dec(grid);
  return __mm_ret20;
}
