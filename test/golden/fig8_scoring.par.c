/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
typedef struct { mm_mat_float1 *f0; int f1; int f2; } struct_mm_mat_float1_int_int;

struct_mm_mat_float1_int_int getTrough(mm_mat_float1 *ts, int i);
mm_mat_float1 *computeArea(mm_mat_float1 *areaOfInterest);
mm_mat_float1 *scoreTS(mm_mat_float1 *ts);
void __mm_mmap_scoreTS34(mm_mat_float3 *m, mm_mat_float3 *r, int t);

struct_mm_mat_float1_int_int getTrough(mm_mat_float1 *ts, int i) {
  int beginning = i;
  int n = ts->dims[0];
  while (true) {
    int __mm_s0 = i + 1;
    if (!(i + 1 < n && ts->data[i] >= ts->data[__mm_s0])) {
      break;
    }
    i = i + 1;
  }
  while (true) {
    int __mm_s1 = i + 1;
    if (!(i + 1 < n && ts->data[i] < ts->data[__mm_s1])) {
      break;
    }
    i = i + 1;
  }
  int __mm_n2 = i - beginning + 1;
  if (__mm_n2 < 0) {
    __mm_n2 = 0;
  }
  mm_mat_int1 *__mm_rng3 = mm_alloc_int(1, __mm_n2);
  for (int __mm_i4 = 0; __mm_i4 < __mm_n2; __mm_i4++) {
    __mm_rng3->data[__mm_i4] = beginning + __mm_i4;
  }
  mm_mat_float1 *__mm_slice5 = mm_alloc_float(1, mm_size(__mm_rng3));
  for (int __mm_o6 = 0; __mm_o6 < mm_size(__mm_rng3); __mm_o6++) {
    __mm_slice5->data[__mm_o6] = ts->data[__mm_rng3->data[__mm_o6]];
  }
  struct_mm_mat_float1_int_int __mm_ret7 = { __mm_slice5, beginning, i };
  mm_rc_dec(__mm_rng3);
  return __mm_ret7;
}

mm_mat_float1 *computeArea(mm_mat_float1 *areaOfInterest) {
  mm_float y1 = areaOfInterest->data[0];
  int __mm_s8 = areaOfInterest->dims[0] - 1;
  mm_float y2 = areaOfInterest->data[__mm_s8];
  int x1 = 0;
  int x2 = areaOfInterest->dims[0] - 1;
  mm_float m = (y1 - y2) / (mm_float) (x1 - x2);
  mm_float b = y1 - m * (mm_float) x1;
  int __mm_n9 = x2 - x1 + 1;
  if (__mm_n9 < 0) {
    __mm_n9 = 0;
  }
  mm_mat_int1 *__mm_rng10 = mm_alloc_int(1, __mm_n9);
  for (int __mm_i11 = 0; __mm_i11 < __mm_n9; __mm_i11++) {
    __mm_rng10->data[__mm_i11] = x1 + __mm_i11;
  }
  mm_mat_float1 *__mm_ew12 = mm_alloc_float(1, __mm_rng10->dims[0]);
  for (int __mm_i13 = 0; __mm_i13 < mm_size(__mm_rng10); __mm_i13++) {
    __mm_ew12->data[__mm_i13] = (mm_float) __mm_rng10->data[__mm_i13] * m;
  }
  mm_mat_float1 *__mm_ew14 = mm_alloc_float(1, __mm_ew12->dims[0]);
  for (int __mm_i15 = 0; __mm_i15 < mm_size(__mm_ew12); __mm_i15++) {
    __mm_ew14->data[__mm_i15] = __mm_ew12->data[__mm_i15] + b;
  }
  mm_mat_float1 *Line = __mm_ew14;
  mm_rc_dec(__mm_ew12);
  mm_rc_dec(__mm_rng10);
  int __mm_s16 = Line->dims[0];
  mm_float __mm_acc17 = 0.0;
  for (int i = 0; i < __mm_s16; i++) {
    __mm_acc17 = __mm_acc17 + (Line->data[i] - areaOfInterest->data[i]);
  }
  mm_float area = __mm_acc17;
  int __mm_s18 = Line->dims[0];
  int __mm_s19 = Line->dims[0];
  mm_mat_float1 *__mm_gen20 = mm_alloc_float(1, __mm_s19);
  for (int i = 0; i < __mm_s18; i++) {
    __mm_gen20->data[i] = area;
  }
  mm_rc_dec(Line);
  return __mm_gen20;
}

mm_mat_float1 *scoreTS(mm_mat_float1 *ts) {
  mm_mat_float1 *__mm_initm23 = mm_alloc_float(1, ts->dims[0]);
  mm_mat_float1 *scores = __mm_initm23;
  int i = 0;
  while (true) {
    int __mm_s24 = i + 1;
    if (!(ts->data[i] < ts->data[__mm_s24])) {
      break;
    }
    i = i + 1;
  }
  int n = ts->dims[0];
  int beginning = 0;
  mm_mat_float1 *trough = NULL;
  while (i < n - 1) {
    struct_mm_mat_float1_int_int __mm_call25 = getTrough(ts, i);
    struct_mm_mat_float1_int_int __mm_tup26 = __mm_call25;
    mm_rc_dec(trough);
    trough = __mm_tup26.f0;
    beginning = __mm_tup26.f1;
    i = __mm_tup26.f2;
    int __mm_n27 = i - beginning + 1;
    if (__mm_n27 < 0) {
      __mm_n27 = 0;
    }
    mm_mat_int1 *__mm_rng28 = mm_alloc_int(1, __mm_n27);
    for (int __mm_i29 = 0; __mm_i29 < __mm_n27; __mm_i29++) {
      __mm_rng28->data[__mm_i29] = beginning + __mm_i29;
    }
    mm_mat_float1 *__mm_call31 = computeArea(trough);
    for (int __mm_o30 = 0; __mm_o30 < mm_size(__mm_rng28); __mm_o30++) {
      scores->data[__mm_rng28->data[__mm_o30]] = __mm_call31->data[__mm_o30];
    }
    mm_rc_dec(__mm_call31);
    mm_rc_dec(__mm_rng28);
  }
  mm_rc_dec(trough);
  return scores;
}

int main(void) {
  mm_mat_float3 *__mm_rd32 = mm_read_matrix("ssh.data");
  mm_mat_float3 *data = __mm_rd32;
  mm_mat_float3 *__mm_mmapr33 = mm_alloc_float(3, data->dims[0], data->dims[1], data->dims[2]);
  int __mm_total38 = data->dims[0] * data->dims[1];
  #pragma omp parallel for
  for (int __mm_t39 = 0; __mm_t39 < __mm_total38; __mm_t39++) {
    __mm_mmap_scoreTS34(data, __mm_mmapr33, __mm_t39);
  }
  mm_mat_float3 *scores = __mm_mmapr33;
  mm_write_matrix("temporalScores.data", scores);
  mm_rc_dec(scores);
  mm_rc_dec(data);
  return 0;
}

void __mm_mmap_scoreTS34(mm_mat_float3 *m, mm_mat_float3 *r, int t) {
  int __mm_rem35 = t;
  int c1 = __mm_rem35 % m->dims[1];
  __mm_rem35 = __mm_rem35 / m->dims[1];
  int c0 = __mm_rem35 % m->dims[0];
  __mm_rem35 = __mm_rem35 / m->dims[0];
  mm_mat_float1 *__mm_slice36 = mm_alloc_float(1, m->dims[2]);
  for (int o2 = 0; o2 < m->dims[2]; o2++) {
    __mm_slice36->data[o2] = m->data[(c0 * m->dims[1] + c1) * m->dims[2] + o2];
  }
  mm_mat_float1 *__mm_out37 = scoreTS(__mm_slice36);
  for (int o2 = 0; o2 < m->dims[2]; o2++) {
    r->data[(c0 * m->dims[1] + c1) * m->dims[2] + o2] = __mm_out37->data[o2];
  }
  mm_rc_dec(__mm_slice36);
  mm_rc_dec(__mm_out37);
  return;
}
