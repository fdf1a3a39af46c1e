/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
#define MM_NSPANS 16
const char *const mm_spans[] = {
  "3:3-12",
  "4:3-12",
  "5:3-52",
  "6:3-76",
  "6:7-76",
  "7:3-32",
  "7:24-32",
  "8:3-52",
  "9:3-68",
  "9:12-67",
  "9:59-66",
  "9:7-68",
  "10:3-64",
  "10:13-64",
  "10:56-63",
  "11:3-17",
};

int main(void) {
  int __mm_crumb0 = mm_crumb_push(0);
  int m = 7;
  mm_crumb_pop(__mm_crumb0);
  int __mm_crumb1 = mm_crumb_push(1);
  int n = 4;
  mm_crumb_pop(__mm_crumb1);
  int __mm_crumb2 = mm_crumb_push(2);
  mm_mat_float2 *__mm_initm0 = mm_calloc_float(2, m, n);
  mm_mat_float2 *a = __mm_initm0;
  mm_crumb_pop(__mm_crumb2);
  int __mm_crumb3 = mm_crumb_push(3);
  mm_mat_float2 *__mm_gen1 = mm_alloc_float(2, m, n);
  int __mm_crumb4 = mm_crumb_push(4);
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_gen1->data[i * n + j] = (mm_float) (i - j) + 2.5;
    }
  }
  mm_crumb_pop(__mm_crumb4);
  mm_rc_dec(a);
  a = __mm_gen1;
  mm_crumb_pop(__mm_crumb3);
  int __mm_crumb5 = mm_crumb_push(5);
  mm_mat_float2 *__mm_ew4 = mm_alloc_float(2, a->dims[0], a->dims[1]);
  int __mm_crumb6 = mm_crumb_push(6);
  for (int __mm_i5 = 0; __mm_i5 < mm_size(a); __mm_i5++) {
    __mm_ew4->data[__mm_i5] = a->data[__mm_i5] * 1.9;
  }
  mm_crumb_pop(__mm_crumb6);
  mm_mat_float2 *b = __mm_ew4;
  mm_crumb_pop(__mm_crumb5);
  int __mm_crumb7 = mm_crumb_push(7);
  mm_mat_float2 *__mm_initm6 = mm_calloc_float(2, m, m);
  mm_mat_float2 *c = __mm_initm6;
  mm_crumb_pop(__mm_crumb7);
  int __mm_crumb8 = mm_crumb_push(8);
  mm_mat_float2 *__mm_gen7 = mm_alloc_float(2, n, m);
  int __mm_crumb9 = mm_crumb_push(9);
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < m; j++) {
      __mm_gen7->data[i * m + j] = b->data[(MM_BOUND(b, 0, j, 10), MM_BOUND(b, 1, i, 10), j * b->dims[1] + i)];
    }
  }
  mm_crumb_pop(__mm_crumb9);
  MM_SAME(a->dims[1], __mm_gen7->dims[0], "inner dimensions of the matrix product disagree", 11);
  mm_mat_float2 *__mm_mm10 = mm_alloc_float(2, a->dims[0], __mm_gen7->dims[1]);
  int __mm_crumb10 = mm_crumb_push(11);
  for (int __mm_i11 = 0; __mm_i11 < a->dims[0]; __mm_i11++) {
    for (int __mm_j12 = 0; __mm_j12 < __mm_gen7->dims[1]; __mm_j12++) {
      mm_float __mm_acc14 = 0.0;
      for (int __mm_l13 = 0; __mm_l13 < a->dims[1]; __mm_l13++) {
        __mm_acc14 = __mm_acc14 + a->data[__mm_i11 * a->dims[1] + __mm_l13] * __mm_gen7->data[__mm_l13 * __mm_gen7->dims[1] + __mm_j12];
      }
      __mm_mm10->data[__mm_i11 * __mm_gen7->dims[1] + __mm_j12] = __mm_acc14;
    }
  }
  mm_crumb_pop(__mm_crumb10);
  mm_rc_dec(c);
  c = __mm_mm10;
  mm_rc_dec(__mm_gen7);
  mm_crumb_pop(__mm_crumb8);
  int __mm_crumb11 = mm_crumb_push(12);
  mm_float __mm_acc15 = 0.0;
  int __mm_crumb12 = mm_crumb_push(13);
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < m; j++) {
      __mm_acc15 = __mm_acc15 + c->data[(MM_BOUND(c, 0, i, 14), MM_BOUND(c, 1, j, 14), i * c->dims[1] + j)];
    }
  }
  mm_crumb_pop(__mm_crumb12);
  mm_float t = __mm_acc15;
  mm_crumb_pop(__mm_crumb11);
  int __mm_crumb13 = mm_crumb_push(15);
  int __mm_ret16 = (int) t;
  mm_rc_dec(c);
  mm_rc_dec(b);
  mm_rc_dec(a);
  mm_crumb_pop(__mm_crumb13);
  return __mm_ret16;
}
