/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
typedef struct { mm_mat_float1 *f0; int f1; int f2; } struct_mm_mat_float1_int_int;

struct_mm_mat_float1_int_int getTrough(mm_mat_float1 *ts, int i);
mm_mat_float1 *computeArea(mm_mat_float1 *areaOfInterest);
mm_mat_float1 *scoreTS(mm_mat_float1 *ts);
void __mm_mmap_scoreTS36(mm_mat_float3 *m, mm_mat_float3 *r, int t);

#define MM_NSPANS 46
const char *const mm_spans[] = {
  "3:3-20",
  "4:3-25",
  "4:11-25",
  "5:3-57",
  "5:32-41",
  "5:23-28",
  "6:3-56",
  "6:31-40",
  "6:23-28",
  "7:3-42",
  "7:11-27",
  "11:3-31",
  "11:14-31",
  "12:3-33",
  "12:14-33",
  "13:3-13",
  "14:3-42",
  "14:12-38",
  "15:3-43",
  "16:3-32",
  "17:3-43",
  "17:27-43",
  "18:3-19:57",
  "18:16-19:57",
  "19:39-56",
  "20:3-21:45",
  "20:10-21:45",
  "25:3-67",
  "25:52-66",
  "26:3-12",
  "27:3-43",
  "27:18-27",
  "27:10-15",
  "28:3-25",
  "28:11-25",
  "29:3-20",
  "30:3-26",
  "31:3-34:4",
  "33:5-47",
  "33:5-25",
  "35:3-16",
  "39:3-49",
  "40:3-58",
  "40:29-58",
  "41:3-45",
  "42:3-11",
};

struct_mm_mat_float1_int_int getTrough(mm_mat_float1 *ts, int i) {
  int __mm_crumb0 = mm_crumb_push(0);
  int beginning = i;
  mm_crumb_pop(__mm_crumb0);
  int __mm_crumb1 = mm_crumb_push(1);
  MM_NOT_NULL(ts, 2);
  int n = ts->dims[0];
  mm_crumb_pop(__mm_crumb1);
  int __mm_crumb2 = mm_crumb_push(3);
  while (true) {
    bool __mm_cond1 = i + 1 < n;
    if (__mm_cond1) {
      int __mm_s0 = i + 1;
      __mm_cond1 = ts->data[(MM_BOUND(ts, 0, i, 5), i)] >= ts->data[(MM_BOUND(ts, 0, __mm_s0, 4), __mm_s0)];
    }
    if (!__mm_cond1) {
      break;
    }
    i = i + 1;
  }
  mm_crumb_pop(__mm_crumb2);
  int __mm_crumb3 = mm_crumb_push(6);
  while (true) {
    bool __mm_cond3 = i + 1 < n;
    if (__mm_cond3) {
      int __mm_s2 = i + 1;
      __mm_cond3 = ts->data[(MM_BOUND(ts, 0, i, 8), i)] < ts->data[(MM_BOUND(ts, 0, __mm_s2, 7), __mm_s2)];
    }
    if (!__mm_cond3) {
      break;
    }
    i = i + 1;
  }
  mm_crumb_pop(__mm_crumb3);
  int __mm_crumb4 = mm_crumb_push(9);
  MM_NOT_NULL(ts, 10);
  int __mm_n4 = i - beginning + 1;
  if (__mm_n4 < 0) {
    __mm_n4 = 0;
  }
  mm_mat_float1 *__mm_slice7 = mm_alloc_float(1, __mm_n4);
  int __mm_crumb5 = mm_crumb_push(10);
  for (int __mm_o8 = 0; __mm_o8 < __mm_n4; __mm_o8++) {
    __mm_slice7->data[__mm_o8] = ts->data[(MM_BOUND(ts, 0, beginning + __mm_o8, 10), beginning + __mm_o8)];
  }
  mm_crumb_pop(__mm_crumb5);
  struct_mm_mat_float1_int_int __mm_ret9 = { __mm_slice7, beginning, i };
  mm_crumb_pop(__mm_crumb4);
  return __mm_ret9;
}

mm_mat_float1 *computeArea(mm_mat_float1 *areaOfInterest) {
  int __mm_crumb6 = mm_crumb_push(11);
  mm_float y1 = areaOfInterest->data[(MM_BOUND(areaOfInterest, 0, 0, 12), 0)];
  mm_crumb_pop(__mm_crumb6);
  int __mm_crumb7 = mm_crumb_push(13);
  MM_NOT_NULL(areaOfInterest, 14);
  int __mm_s10 = areaOfInterest->dims[0] - 1;
  mm_float y2 = areaOfInterest->data[(MM_BOUND(areaOfInterest, 0, __mm_s10, 14), __mm_s10)];
  mm_crumb_pop(__mm_crumb7);
  int __mm_crumb8 = mm_crumb_push(15);
  int x1 = 0;
  mm_crumb_pop(__mm_crumb8);
  int __mm_crumb9 = mm_crumb_push(16);
  MM_NOT_NULL(areaOfInterest, 17);
  int x2 = areaOfInterest->dims[0] - 1;
  mm_crumb_pop(__mm_crumb9);
  int __mm_crumb10 = mm_crumb_push(18);
  mm_float m = (y1 - y2) / (mm_float) (x1 - x2);
  mm_crumb_pop(__mm_crumb10);
  int __mm_crumb11 = mm_crumb_push(19);
  mm_float b = y1 - m * (mm_float) x1;
  mm_crumb_pop(__mm_crumb11);
  int __mm_crumb12 = mm_crumb_push(20);
  int __mm_n11 = x2 - x1 + 1;
  if (__mm_n11 < 0) {
    __mm_n11 = 0;
  }
  mm_mat_float1 *__mm_ew16 = mm_alloc_float(1, __mm_n11);
  int __mm_crumb13 = mm_crumb_push(21);
  for (int __mm_i17 = 0; __mm_i17 < __mm_n11; __mm_i17++) {
    __mm_ew16->data[__mm_i17] = (mm_float) (x1 + __mm_i17) * m + b;
  }
  mm_crumb_pop(__mm_crumb13);
  mm_mat_float1 *Line = __mm_ew16;
  mm_crumb_pop(__mm_crumb12);
  int __mm_crumb14 = mm_crumb_push(22);
  int __mm_s18 = Line->dims[0];
  mm_float __mm_acc19 = 0.0;
  int __mm_crumb15 = mm_crumb_push(23);
  for (int i = 0; i < __mm_s18; i++) {
    __mm_acc19 = __mm_acc19 + (Line->data[i] - areaOfInterest->data[(MM_BOUND(areaOfInterest, 0, i, 24), i)]);
  }
  mm_crumb_pop(__mm_crumb15);
  mm_float area = __mm_acc19;
  mm_crumb_pop(__mm_crumb14);
  int __mm_crumb16 = mm_crumb_push(25);
  int __mm_s20 = Line->dims[0];
  int __mm_s21 = Line->dims[0];
  mm_mat_float1 *__mm_gen22 = mm_alloc_float(1, __mm_s21);
  int __mm_crumb17 = mm_crumb_push(26);
  for (int i = 0; i < __mm_s20; i++) {
    __mm_gen22->data[i] = area;
  }
  mm_crumb_pop(__mm_crumb17);
  mm_rc_dec(Line);
  mm_crumb_pop(__mm_crumb16);
  return __mm_gen22;
}

mm_mat_float1 *scoreTS(mm_mat_float1 *ts) {
  int __mm_crumb18 = mm_crumb_push(27);
  MM_NOT_NULL(ts, 28);
  mm_mat_float1 *__mm_initm25 = mm_calloc_float(1, ts->dims[0]);
  mm_mat_float1 *scores = __mm_initm25;
  mm_crumb_pop(__mm_crumb18);
  int __mm_crumb19 = mm_crumb_push(29);
  int i = 0;
  mm_crumb_pop(__mm_crumb19);
  int __mm_crumb20 = mm_crumb_push(30);
  while (true) {
    int __mm_s26 = i + 1;
    if (!(ts->data[(MM_BOUND(ts, 0, i, 32), i)] < ts->data[(MM_BOUND(ts, 0, __mm_s26, 31), __mm_s26)])) {
      break;
    }
    i = i + 1;
  }
  mm_crumb_pop(__mm_crumb20);
  int __mm_crumb21 = mm_crumb_push(33);
  MM_NOT_NULL(ts, 34);
  int n = ts->dims[0];
  mm_crumb_pop(__mm_crumb21);
  int __mm_crumb22 = mm_crumb_push(35);
  int beginning = 0;
  mm_crumb_pop(__mm_crumb22);
  int __mm_crumb23 = mm_crumb_push(36);
  mm_mat_float1 *trough = NULL;
  mm_crumb_pop(__mm_crumb23);
  int __mm_crumb24 = mm_crumb_push(37);
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
    MM_NOT_NULL(__mm_call33, 38);
    MM_SAME(__mm_call33->dims[0], __mm_n29, "assigned matrix disagrees with the selected region in dimension 0", 38);
    int __mm_crumb25 = mm_crumb_push(38);
    for (int __mm_o32 = 0; __mm_o32 < __mm_n29; __mm_o32++) {
      MM_BOUND(scores, 0, beginning + __mm_o32, 39);
      scores->data[beginning + __mm_o32] = __mm_call33->data[__mm_o32];
    }
    mm_crumb_pop(__mm_crumb25);
    mm_rc_dec(__mm_call33);
  }
  mm_crumb_pop(__mm_crumb24);
  int __mm_crumb26 = mm_crumb_push(40);
  mm_rc_dec(trough);
  mm_crumb_pop(__mm_crumb26);
  return scores;
}

int main(void) {
  int __mm_crumb27 = mm_crumb_push(41);
  mm_mat_float3 *__mm_rd34 = mm_read_matrix("ssh.data");
  mm_mat_float3 *data = __mm_rd34;
  mm_crumb_pop(__mm_crumb27);
  int __mm_crumb28 = mm_crumb_push(42);
  mm_mat_float3 *__mm_mmapr35 = mm_alloc_float(3, data->dims[0], data->dims[1], data->dims[2]);
  int __mm_total40 = data->dims[0] * data->dims[1];
  int __mm_crumb29 = mm_crumb_push(43);
  #pragma omp parallel for
  for (int __mm_t41 = 0; __mm_t41 < __mm_total40; __mm_t41++) {
    __mm_mmap_scoreTS36(data, __mm_mmapr35, __mm_t41);
  }
  mm_crumb_pop(__mm_crumb29);
  mm_mat_float3 *scores = __mm_mmapr35;
  mm_crumb_pop(__mm_crumb28);
  int __mm_crumb30 = mm_crumb_push(44);
  mm_write_matrix("temporalScores.data", scores);
  mm_crumb_pop(__mm_crumb30);
  int __mm_crumb31 = mm_crumb_push(45);
  mm_rc_dec(scores);
  mm_rc_dec(data);
  mm_crumb_pop(__mm_crumb31);
  return 0;
}

void __mm_mmap_scoreTS36(mm_mat_float3 *m, mm_mat_float3 *r, int t) {
  int __mm_rem37 = t;
  int c1 = __mm_rem37 % m->dims[1];
  __mm_rem37 = __mm_rem37 / m->dims[1];
  int c0 = __mm_rem37 % m->dims[0];
  __mm_rem37 = __mm_rem37 / m->dims[0];
  mm_mat_float1 *__mm_slice38 = mm_alloc_float(1, m->dims[2]);
  int __mm_crumb32 = mm_crumb_push(43);
  for (int o2 = 0; o2 < m->dims[2]; o2++) {
    __mm_slice38->data[o2] = m->data[(c0 * m->dims[1] + c1) * m->dims[2] + o2];
  }
  mm_crumb_pop(__mm_crumb32);
  mm_mat_float1 *__mm_out39 = scoreTS(__mm_slice38);
  MM_SAME(__mm_out39->dims[0], m->dims[2], "result of 'scoreTS' disagrees with its fiber in dimension 0", 43);
  int __mm_crumb33 = mm_crumb_push(43);
  for (int o2 = 0; o2 < m->dims[2]; o2++) {
    r->data[(c0 * m->dims[1] + c1) * m->dims[2] + o2] = __mm_out39->data[o2];
  }
  mm_crumb_pop(__mm_crumb33);
  mm_rc_dec(__mm_slice38);
  mm_rc_dec(__mm_out39);
  return;
}
