/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
typedef struct { mm_mat_float1 *f0; int f1; int f2; } struct_mm_mat_float1_int_int;

struct_mm_mat_float1_int_int getTrough(mm_mat_float1 *ts, int i);
mm_mat_float1 *computeArea(mm_mat_float1 *areaOfInterest);
void scoreTS(mm_mat_float1 *ts, mm_mat_float1 *__mm_dst);
void __mm_mmap_scoreTS36(mm_mat_float3 *m, mm_mat_float3 *r, int t);

#define MM_NSPANS 23
const char *const mm_spans[] = {
  "4:11-25",
  "5:32-41",
  "5:23-28",
  "6:31-40",
  "6:23-28",
  "7:11-27",
  "7:3-42",
  "11:14-31",
  "12:14-33",
  "14:12-38",
  "15:3-43",
  "17:3-43",
  "19:39-56",
  "20:3-21:45",
  "25:52-66",
  "27:18-27",
  "27:10-15",
  "28:11-25",
  "33:5-47",
  "33:5-25",
  "39:3-49",
  "40:3-58",
  "41:3-45",
};

struct_mm_mat_float1_int_int getTrough(mm_mat_float1 *ts, int i) {
  int beginning = i;
  MM_NOT_NULL(ts, 0);
  int n = ts->dims[0];
  while (true) {
    bool __mm_cond1 = i + 1 < n;
    if (__mm_cond1) {
      int __mm_s0 = i + 1;
      __mm_cond1 = ts->data[(MM_BOUND(ts, 0, i, 2), i)] >= ts->data[(MM_BOUND(ts, 0, __mm_s0, 1), __mm_s0)];
    }
    if (!__mm_cond1) {
      break;
    }
    i = i + 1;
  }
  while (true) {
    bool __mm_cond3 = i + 1 < n;
    if (__mm_cond3) {
      int __mm_s2 = i + 1;
      __mm_cond3 = ts->data[(MM_BOUND(ts, 0, i, 4), i)] < ts->data[(MM_BOUND(ts, 0, __mm_s2, 3), __mm_s2)];
    }
    if (!__mm_cond3) {
      break;
    }
    i = i + 1;
  }
  MM_NOT_NULL(ts, 5);
  int __mm_n4 = i - beginning + 1;
  if (__mm_n4 < 0) {
    __mm_n4 = 0;
  }
  mm_mat_float1 *__mm_slice7 = mm_alloc_float(6, 1, __mm_n4);
  for (int __mm_o8 = 0; __mm_o8 < __mm_n4; __mm_o8++) {
    __mm_slice7->data[__mm_o8] = ts->data[(MM_BOUND(ts, 0, beginning + __mm_o8, 5), beginning + __mm_o8)];
  }
  struct_mm_mat_float1_int_int __mm_ret9 = { __mm_slice7, beginning, i };
  return __mm_ret9;
}

mm_mat_float1 *computeArea(mm_mat_float1 *areaOfInterest) {
  mm_float y1 = areaOfInterest->data[(MM_BOUND(areaOfInterest, 0, 0, 7), 0)];
  MM_NOT_NULL(areaOfInterest, 8);
  int __mm_s10 = areaOfInterest->dims[0] - 1;
  mm_float y2 = areaOfInterest->data[(MM_BOUND(areaOfInterest, 0, __mm_s10, 8), __mm_s10)];
  int x1 = 0;
  MM_NOT_NULL(areaOfInterest, 9);
  int x2 = areaOfInterest->dims[0] - 1;
  mm_float m = mm_div(y1 - y2, (mm_float) (x1 - x2), 10);
  mm_float b = y1 - m * (mm_float) x1;
  int __mm_n11 = x2 - x1 + 1;
  if (__mm_n11 < 0) {
    __mm_n11 = 0;
  }
  mm_mat_float1 *__mm_ew16 = mm_alloc_float(11, 1, __mm_n11);
  for (int __mm_i17 = 0; __mm_i17 < __mm_n11; __mm_i17++) {
    __mm_ew16->data[__mm_i17] = (mm_float) (x1 + __mm_i17) * m + b;
  }
  mm_mat_float1 *Line = __mm_ew16;
  int __mm_s18 = Line->dims[0];
  mm_float __mm_acc19 = 0.0;
  for (int i = 0; i < __mm_s18; i++) {
    __mm_acc19 = __mm_acc19 + (Line->data[i] - areaOfInterest->data[(MM_BOUND(areaOfInterest, 0, i, 12), i)]);
  }
  mm_float area = __mm_acc19;
  int __mm_s20 = Line->dims[0];
  int __mm_s21 = Line->dims[0];
  mm_mat_float1 *__mm_gen22 = mm_alloc_float(13, 1, __mm_s21);
  for (int i = 0; i < __mm_s20; i++) {
    __mm_gen22->data[i] = area;
  }
  mm_rc_dec(Line);
  return __mm_gen22;
}

void scoreTS(mm_mat_float1 *ts, mm_mat_float1 *__mm_dst) {
  MM_NOT_NULL(ts, 14);
  mm_mat_float1 *__mm_initm25 = __mm_dst;
  for (int __mm_fill = 0; __mm_fill < mm_size(__mm_initm25); __mm_fill++) {
    __mm_initm25->data[__mm_fill] = 0.0;
  }
  mm_mat_float1 *scores = __mm_initm25;
  int i = 0;
  while (true) {
    int __mm_s26 = i + 1;
    if (!(ts->data[(MM_BOUND(ts, 0, i, 16), i)] < ts->data[(MM_BOUND(ts, 0, __mm_s26, 15), __mm_s26)])) {
      break;
    }
    i = i + 1;
  }
  MM_NOT_NULL(ts, 17);
  int n = ts->dims[0];
  int beginning = 0;
  mm_mat_float1 *trough = NULL;
  while (i < n - 1) {
    struct_mm_mat_float1_int_int __mm_call27 = getTrough(ts, i);
    struct_mm_mat_float1_int_int __mm_tup28 = __mm_call27;
    mm_rc_dec(trough);
    trough = __mm_tup28.f0;
    beginning = __mm_tup28.f1;
    i = __mm_tup28.f2;
    int __mm_n29 = i - beginning + 1;
    if (__mm_n29 < 0) {
      __mm_n29 = 0;
    }
    mm_mat_float1 *__mm_call33 = computeArea(trough);
    MM_NOT_NULL(__mm_call33, 18);
    MM_SAME(__mm_call33->dims[0], __mm_n29, "assigned matrix disagrees with the selected region in dimension 0", 18);
    for (int __mm_o32 = 0; __mm_o32 < __mm_n29; __mm_o32++) {
      MM_BOUND(scores, 0, beginning + __mm_o32, 19);
      scores->data[beginning + __mm_o32] = __mm_call33->data[__mm_o32];
    }
    mm_rc_dec(__mm_call33);
  }
  mm_rc_dec(trough);
  return;
}

int main(void) {
  mm_mat_float3 *__mm_rd34 = mm_read_matrix("ssh.data", 20);
  mm_mat_float3 *data = __mm_rd34;
  mm_mat_float3 *__mm_mmapr35 = mm_alloc_float(21, 3, data->dims[0], data->dims[1], data->dims[2]);
  int __mm_total42 = data->dims[0] * data->dims[1];
  for (int __mm_t43 = 0; __mm_t43 < __mm_total42; __mm_t43++) {
    __mm_mmap_scoreTS36(data, __mm_mmapr35, __mm_t43);
  }
  mm_mat_float3 *scores = __mm_mmapr35;
  mm_write_matrix("temporalScores.data", scores, 22);
  mm_rc_dec(scores);
  mm_rc_dec(data);
  return 0;
}

void __mm_mmap_scoreTS36(mm_mat_float3 *m, mm_mat_float3 *r, int t) {
  int __mm_n37 = m->dims[2];
  int __mm_off38 = t * __mm_n37;
  mm_mat_float1 *__mm_slice40 = mm_view_float(&(mm_mat_float){0}, m->data + __mm_off38, 1, (const int[]){m->dims[2]});
  mm_mat_float1 *__mm_out41 = mm_view_float(&(mm_mat_float){0}, r->data + __mm_off38, 1, (const int[]){m->dims[2]});
  scoreTS(__mm_slice40, __mm_out41);
  return;
}
