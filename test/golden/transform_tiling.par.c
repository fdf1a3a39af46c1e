/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
mm_float rowMean(mm_mat_float2 *grid, int i);

#define MM_NSPANS 24
const char *const mm_spans[] = {
  "14:3-36",
  "14:26-36",
  "15:3-26",
  "16:3-61",
  "16:17-61",
  "17:3-19",
  "21:3-13",
  "22:3-13",
  "23:3-55",
  "24:3-62",
  "24:10-62",
  "29:3-57",
  "30:3-32:36",
  "30:12-75",
  "30:59-69",
  "36:3-39",
  "37:3-71",
  "37:17-71",
  "37:60-70",
  "39:3-53",
  "40:3-67",
  "40:11-67",
  "42:3-33",
  "42:24-32",
};

mm_float rowMean(mm_mat_float2 *grid, int i) {
  int __mm_crumb0 = mm_crumb_push(0);
  MM_NOT_NULL(grid, 1);
  MM_BOUND(grid, 0, i, 1);
  mm_crumb_pop(__mm_crumb0);
  int __mm_crumb1 = mm_crumb_push(2);
  int n = grid->dims[1];
  mm_crumb_pop(__mm_crumb1);
  int __mm_crumb2 = mm_crumb_push(3);
  mm_float __mm_acc2 = 0.0;
  int __mm_crumb3 = mm_crumb_push(4);
  for (int k = 0; k < n; k++) {
    __mm_acc2 = __mm_acc2 + grid->data[i * grid->dims[1] + k];
  }
  mm_crumb_pop(__mm_crumb3);
  mm_float total = __mm_acc2;
  mm_crumb_pop(__mm_crumb2);
  int __mm_crumb4 = mm_crumb_push(5);
  mm_float __mm_ret3 = total / (mm_float) n;
  mm_crumb_pop(__mm_crumb4);
  return __mm_ret3;
}

int main(void) {
  int __mm_crumb5 = mm_crumb_push(6);
  int m = 32;
  mm_crumb_pop(__mm_crumb5);
  int __mm_crumb6 = mm_crumb_push(7);
  int n = 32;
  mm_crumb_pop(__mm_crumb6);
  int __mm_crumb7 = mm_crumb_push(8);
  mm_mat_float2 *__mm_initm4 = mm_calloc_float(2, m, n);
  mm_mat_float2 *grid = __mm_initm4;
  mm_crumb_pop(__mm_crumb7);
  int __mm_crumb8 = mm_crumb_push(9);
  mm_mat_float2 *__mm_gen5 = mm_alloc_float(2, m, n);
  int __mm_crumb9 = mm_crumb_push(10);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_gen5->data[i * n + j] = 0.5;
    }
  }
  mm_crumb_pop(__mm_crumb9);
  mm_rc_dec(grid);
  grid = __mm_gen5;
  mm_crumb_pop(__mm_crumb8);
  int __mm_crumb10 = mm_crumb_push(11);
  mm_mat_float2 *__mm_initm8 = mm_calloc_float(2, m, n);
  mm_mat_float2 *scaled = __mm_initm8;
  mm_crumb_pop(__mm_crumb10);
  int __mm_crumb11 = mm_crumb_push(12);
  mm_mat_float2 *__mm_gen9 = mm_alloc_float(2, m, n);
  int __mm_crumb12 = mm_crumb_push(13);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    for (int jin = 0; jin < 4; jin++) {
      for (int jout = 0; jout < n / 4; jout++) {
        __mm_gen9->data[i * n + (jout * 4 + jin)] = grid->data[(MM_BOUND(grid, 0, i, 14), MM_BOUND(grid, 1, jout * 4 + jin, 14), i * grid->dims[1] + (jout * 4 + jin))] + 1.0;
      }
    }
    for (int __mm_rem_j = 0; __mm_rem_j < n - n / 4 * 4; __mm_rem_j++) {
      __mm_gen9->data[i * n + (n / 4 * 4 + __mm_rem_j)] = grid->data[(MM_BOUND(grid, 0, i, 14), MM_BOUND(grid, 1, n / 4 * 4 + __mm_rem_j, 14), i * grid->dims[1] + (n / 4 * 4 + __mm_rem_j))] + 1.0;
    }
  }
  mm_crumb_pop(__mm_crumb12);
  mm_rc_dec(scaled);
  scaled = __mm_gen9;
  mm_crumb_pop(__mm_crumb11);
  int __mm_crumb13 = mm_crumb_push(15);
  mm_rc_inc(scaled);
  mm_mat_float2 *view = scaled;
  mm_crumb_pop(__mm_crumb13);
  int __mm_crumb14 = mm_crumb_push(16);
  mm_float __mm_acc15 = 0.0;
  int __mm_crumb15 = mm_crumb_push(17);
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_acc15 = __mm_acc15 + view->data[(MM_BOUND(view, 0, i, 18), MM_BOUND(view, 1, j, 18), i * view->dims[1] + j)];
    }
  }
  mm_crumb_pop(__mm_crumb15);
  mm_float total = __mm_acc15;
  mm_crumb_pop(__mm_crumb14);
  int __mm_crumb16 = mm_crumb_push(19);
  mm_mat_float1 *__mm_initm16 = mm_calloc_float(1, m);
  mm_mat_float1 *means = __mm_initm16;
  mm_crumb_pop(__mm_crumb16);
  int __mm_crumb17 = mm_crumb_push(20);
  mm_mat_float1 *__mm_gen17 = mm_alloc_float(1, m);
  int __mm_crumb18 = mm_crumb_push(21);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    __mm_gen17->data[i] = rowMean(grid, i);
  }
  mm_crumb_pop(__mm_crumb18);
  mm_rc_dec(means);
  means = __mm_gen17;
  mm_crumb_pop(__mm_crumb17);
  int __mm_crumb19 = mm_crumb_push(22);
  int __mm_ret20 = (int) (total + means->data[(MM_BOUND(means, 0, 0, 23), 0)]);
  mm_rc_dec(means);
  mm_rc_dec(view);
  mm_rc_dec(scaled);
  mm_rc_dec(grid);
  mm_crumb_pop(__mm_crumb19);
  return __mm_ret20;
}
