/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
mm_mat_float1 *anomaly(mm_mat_float1 *ts);
void __mm_mmap_anomaly9(mm_mat_float3 *m, mm_mat_float3 *r, int t);

#define MM_NSPANS 27
const char *const mm_spans[] = {
  "10:3-25",
  "10:11-25",
  "11:3-65",
  "11:17-60",
  "12:3-62",
  "12:10-62",
  "16:3-13",
  "17:3-13",
  "18:3-13",
  "19:3-57",
  "20:3-22:63",
  "20:9-22:63",
  "23:3-55",
  "23:27-55",
  "24:3-57",
  "25:3-27:78",
  "25:12-27:78",
  "27:14-77",
  "27:65-76",
  "27:51-62",
  "28:3-72",
  "28:17-72",
  "28:60-71",
  "29:3-17",
  "30:3-34:4",
  "32:11-23",
  "35:3-16",
};

mm_mat_float1 *anomaly(mm_mat_float1 *ts) {
  int __mm_crumb0 = mm_crumb_push(0);
  MM_NOT_NULL(ts, 1);
  int p = ts->dims[0];
  mm_crumb_pop(__mm_crumb0);
  int __mm_crumb1 = mm_crumb_push(2);
  mm_float __mm_acc0 = 0.0;
  int __mm_crumb2 = mm_crumb_push(3);
  for (int k = 0; k < p; k++) {
    __mm_acc0 = __mm_acc0 + ts->data[k];
  }
  mm_crumb_pop(__mm_crumb2);
  mm_float mean = __mm_acc0 / (mm_float) p;
  mm_crumb_pop(__mm_crumb1);
  int __mm_crumb3 = mm_crumb_push(4);
  mm_mat_float1 *__mm_gen1 = mm_alloc_float(1, p);
  int __mm_crumb4 = mm_crumb_push(5);
  for (int k = 0; k < p; k++) {
    __mm_gen1->data[k] = ts->data[k] - mean;
  }
  mm_crumb_pop(__mm_crumb4);
  mm_crumb_pop(__mm_crumb3);
  return __mm_gen1;
}

int main(void) {
  int __mm_crumb5 = mm_crumb_push(6);
  int m = 48;
  mm_crumb_pop(__mm_crumb5);
  int __mm_crumb6 = mm_crumb_push(7);
  int n = 48;
  mm_crumb_pop(__mm_crumb6);
  int __mm_crumb7 = mm_crumb_push(8);
  int p = 64;
  mm_crumb_pop(__mm_crumb7);
  int __mm_crumb8 = mm_crumb_push(9);
  mm_mat_float3 *__mm_initm4 = mm_calloc_float(3, m, n, p);
  mm_mat_float3 *ssh = __mm_initm4;
  mm_crumb_pop(__mm_crumb8);
  int __mm_crumb9 = mm_crumb_push(10);
  mm_mat_float3 *__mm_gen5 = mm_alloc_float(3, m, n, p);
  int __mm_crumb10 = mm_crumb_push(11);
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      for (int k = 0; k < p; k++) {
        __mm_gen5->data[(i * n + j) * p + k] = (mm_float) ((i * 7 + j * 13 + k * 5) % 37) / 37.0 - 0.5;
      }
    }
  }
  mm_crumb_pop(__mm_crumb10);
  mm_rc_dec(ssh);
  ssh = __mm_gen5;
  mm_crumb_pop(__mm_crumb9);
  int __mm_crumb11 = mm_crumb_push(12);
  mm_mat_float3 *__mm_mmapr8 = mm_alloc_float(3, ssh->dims[0], ssh->dims[1], ssh->dims[2]);
  int __mm_total13 = ssh->dims[0] * ssh->dims[1];
  int __mm_crumb12 = mm_crumb_push(13);
  for (int __mm_t14 = 0; __mm_t14 < __mm_total13; __mm_t14++) {
    __mm_mmap_anomaly9(ssh, __mm_mmapr8, __mm_t14);
  }
  mm_crumb_pop(__mm_crumb12);
  mm_mat_float3 *anom = __mm_mmapr8;
  mm_crumb_pop(__mm_crumb11);
  int __mm_crumb13 = mm_crumb_push(14);
  mm_mat_float2 *__mm_initm15 = mm_calloc_float(2, m, n);
  mm_mat_float2 *energy = __mm_initm15;
  mm_crumb_pop(__mm_crumb13);
  int __mm_crumb14 = mm_crumb_push(15);
  mm_mat_float2 *__mm_gen16 = mm_alloc_float(2, m, n);
  int __mm_crumb15 = mm_crumb_push(16);
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      mm_float __mm_acc17 = 0.0;
      int __mm_crumb16 = mm_crumb_push(17);
      for (int k = 0; k < p; k++) {
        __mm_acc17 = __mm_acc17 + anom->data[(MM_BOUND(anom, 0, i, 19), MM_BOUND(anom, 1, j, 19), MM_BOUND(anom, 2, k, 19), (i * anom->dims[1] + j) * anom->dims[2] + k)] * anom->data[(MM_BOUND(anom, 0, i, 18), MM_BOUND(anom, 1, j, 18), MM_BOUND(anom, 2, k, 18), (i * anom->dims[1] + j) * anom->dims[2] + k)];
      }
      mm_crumb_pop(__mm_crumb16);
      __mm_gen16->data[i * n + j] = __mm_acc17;
    }
  }
  mm_crumb_pop(__mm_crumb15);
  mm_rc_dec(energy);
  energy = __mm_gen16;
  mm_crumb_pop(__mm_crumb14);
  int __mm_crumb17 = mm_crumb_push(20);
  mm_float __mm_acc20 = 0.0;
  int __mm_crumb18 = mm_crumb_push(21);
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_acc20 = __mm_acc20 + energy->data[(MM_BOUND(energy, 0, i, 22), MM_BOUND(energy, 1, j, 22), i * energy->dims[1] + j)];
    }
  }
  mm_crumb_pop(__mm_crumb18);
  mm_float total = __mm_acc20;
  mm_crumb_pop(__mm_crumb17);
  int __mm_crumb19 = mm_crumb_push(23);
  int eddies = 0;
  mm_crumb_pop(__mm_crumb19);
  int __mm_crumb20 = mm_crumb_push(24);
  {
    int i = 0;
    while (i < m) {
      {
        int j = 0;
        while (j < n) {
          if (energy->data[(MM_BOUND(energy, 0, i, 25), MM_BOUND(energy, 1, j, 25), i * energy->dims[1] + j)] > total / (mm_float) (m * n)) {
            eddies = eddies + 1;
          }
          j = j + 1;
        }
      }
      i = i + 1;
    }
  }
  mm_crumb_pop(__mm_crumb20);
  int __mm_crumb21 = mm_crumb_push(26);
  mm_rc_dec(energy);
  mm_rc_dec(anom);
  mm_rc_dec(ssh);
  mm_crumb_pop(__mm_crumb21);
  return eddies;
}

void __mm_mmap_anomaly9(mm_mat_float3 *m, mm_mat_float3 *r, int t) {
  int __mm_rem10 = t;
  int c1 = __mm_rem10 % m->dims[1];
  __mm_rem10 = __mm_rem10 / m->dims[1];
  int c0 = __mm_rem10 % m->dims[0];
  __mm_rem10 = __mm_rem10 / m->dims[0];
  mm_mat_float1 *__mm_slice11 = mm_alloc_float(1, m->dims[2]);
  int __mm_crumb22 = mm_crumb_push(13);
  for (int o2 = 0; o2 < m->dims[2]; o2++) {
    __mm_slice11->data[o2] = m->data[(c0 * m->dims[1] + c1) * m->dims[2] + o2];
  }
  mm_crumb_pop(__mm_crumb22);
  mm_mat_float1 *__mm_out12 = anomaly(__mm_slice11);
  MM_SAME(__mm_out12->dims[0], m->dims[2], "result of 'anomaly' disagrees with its fiber in dimension 0", 13);
  int __mm_crumb23 = mm_crumb_push(13);
  for (int o2 = 0; o2 < m->dims[2]; o2++) {
    r->data[(c0 * m->dims[1] + c1) * m->dims[2] + o2] = __mm_out12->data[o2];
  }
  mm_crumb_pop(__mm_crumb23);
  mm_rc_dec(__mm_slice11);
  mm_rc_dec(__mm_out12);
  return;
}
