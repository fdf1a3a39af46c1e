/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
#define MM_NSPANS 8
const char *const mm_spans[] = {
  "5:3-52",
  "6:3-76",
  "7:3-32",
  "8:3-52",
  "9:3-68",
  "9:59-66",
  "9:7-68",
  "10:56-63",
};

int main(void) {
  int m = 4;
  int n = 7;
  mm_mat_float2 *__mm_initm0 = mm_calloc_float(0, 2, m, n);
  mm_mat_float2 *a = __mm_initm0;
  mm_mat_float2 *__mm_gen1 = mm_alloc_float(1, 2, m, n);
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_gen1->data[i * n + j] = (mm_float) (i + j) + 2.5;
    }
  }
  mm_rc_dec(a);
  a = __mm_gen1;
  mm_mat_float2 *__mm_ew4 = mm_alloc_float(2, 2, a->dims[0], a->dims[1]);
  for (int __mm_i5 = 0; __mm_i5 < mm_size(a); __mm_i5++) {
    __mm_ew4->data[__mm_i5] = a->data[__mm_i5] - 2.8;
  }
  mm_mat_float2 *b = __mm_ew4;
  mm_mat_float2 *__mm_initm6 = mm_calloc_float(3, 2, m, m);
  mm_mat_float2 *c = __mm_initm6;
  mm_mat_float2 *__mm_gen7 = mm_alloc_float(4, 2, n, m);
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < m; j++) {
      __mm_gen7->data[i * m + j] = b->data[(MM_BOUND(b, 0, j, 5), MM_BOUND(b, 1, i, 5), j * b->dims[1] + i)];
    }
  }
  MM_SAME(a->dims[1], __mm_gen7->dims[0], "inner dimensions of the matrix product disagree", 6);
  mm_mat_float2 *__mm_mm10 = mm_alloc_float(4, 2, a->dims[0], __mm_gen7->dims[1]);
  for (int __mm_i11 = 0; __mm_i11 < a->dims[0]; __mm_i11++) {
    for (int __mm_j12 = 0; __mm_j12 < __mm_gen7->dims[1]; __mm_j12++) {
      mm_float __mm_acc14 = 0.0;
      for (int __mm_l13 = 0; __mm_l13 < a->dims[1]; __mm_l13++) {
        __mm_acc14 = __mm_acc14 + a->data[__mm_i11 * a->dims[1] + __mm_l13] * __mm_gen7->data[__mm_l13 * __mm_gen7->dims[1] + __mm_j12];
      }
      __mm_mm10->data[__mm_i11 * __mm_gen7->dims[1] + __mm_j12] = __mm_acc14;
    }
  }
  mm_rc_dec(c);
  c = __mm_mm10;
  mm_rc_dec(__mm_gen7);
  mm_float __mm_acc15 = 0.0;
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < m; j++) {
      __mm_acc15 = __mm_acc15 + c->data[(MM_BOUND(c, 0, i, 7), MM_BOUND(c, 1, j, 7), i * c->dims[1] + j)];
    }
  }
  mm_float t = __mm_acc15;
  int __mm_ret16 = (int) t;
  mm_rc_dec(c);
  mm_rc_dec(b);
  mm_rc_dec(a);
  return __mm_ret16;
}
