/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
mm_mat_float1 *anomaly(mm_mat_float1 *ts);
void __mm_mmap_anomaly9(mm_mat_float3 *m, mm_mat_float3 *r, int t);

#define MM_NSPANS 14
const char *const mm_spans[] = {
  "10:11-25",
  "11:3-65",
  "12:3-62",
  "19:3-57",
  "20:3-22:63",
  "23:3-55",
  "24:3-57",
  "25:3-27:78",
  "27:65-76",
  "27:51-62",
  "28:60-71",
  "32:7-33:5",
  "32:11-23",
  "23:27-55",
};

mm_mat_float1 *anomaly(mm_mat_float1 *ts) {
  MM_NOT_NULL(ts, 0);
  int p = ts->dims[0];
  mm_float __mm_acc0 = 0.0;
  for (int k = 0; k < p; k++) {
    __mm_acc0 = __mm_acc0 + ts->data[k];
  }
  mm_float mean = mm_div(__mm_acc0, (mm_float) p, 1);
  mm_mat_float1 *__mm_gen1 = mm_alloc_float(2, 1, p);
  for (int k = 0; k < p; k++) {
    __mm_gen1->data[k] = ts->data[k] - mean;
  }
  return __mm_gen1;
}

int main(void) {
  int m = 48;
  int n = 48;
  int p = 64;
  mm_mat_float3 *__mm_initm4 = mm_calloc_float(3, 3, m, n, p);
  mm_mat_float3 *ssh = __mm_initm4;
  mm_mat_float3 *__mm_gen5 = mm_alloc_float(4, 3, m, n, p);
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      for (int k = 0; k < p; k++) {
        __mm_gen5->data[(i * n + j) * p + k] = (mm_float) ((i * 7 + j * 13 + k * 5) % 37) / 37.0 - 0.5;
      }
    }
  }
  mm_rc_dec(ssh);
  ssh = __mm_gen5;
  mm_mat_float3 *__mm_mmapr8 = mm_alloc_float(5, 3, ssh->dims[0], ssh->dims[1], ssh->dims[2]);
  int __mm_total13 = ssh->dims[0] * ssh->dims[1];
  for (int __mm_t14 = 0; __mm_t14 < __mm_total13; __mm_t14++) {
    __mm_mmap_anomaly9(ssh, __mm_mmapr8, __mm_t14);
  }
  mm_mat_float3 *anom = __mm_mmapr8;
  mm_mat_float2 *__mm_initm15 = mm_calloc_float(6, 2, m, n);
  mm_mat_float2 *energy = __mm_initm15;
  mm_mat_float2 *__mm_gen16 = mm_alloc_float(7, 2, m, n);
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      mm_float __mm_acc17 = 0.0;
      for (int k = 0; k < p; k++) {
        __mm_acc17 = __mm_acc17 + anom->data[(MM_BOUND(anom, 0, i, 9), MM_BOUND(anom, 1, j, 9), MM_BOUND(anom, 2, k, 9), (i * anom->dims[1] + j) * anom->dims[2] + k)] * anom->data[(MM_BOUND(anom, 0, i, 8), MM_BOUND(anom, 1, j, 8), MM_BOUND(anom, 2, k, 8), (i * anom->dims[1] + j) * anom->dims[2] + k)];
      }
      __mm_gen16->data[i * n + j] = __mm_acc17;
    }
  }
  mm_rc_dec(energy);
  energy = __mm_gen16;
  mm_float __mm_acc20 = 0.0;
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_acc20 = __mm_acc20 + energy->data[(MM_BOUND(energy, 0, i, 10), MM_BOUND(energy, 1, j, 10), i * energy->dims[1] + j)];
    }
  }
  mm_float total = __mm_acc20;
  int eddies = 0;
  {
    int i = 0;
    while (i < m) {
      {
        int j = 0;
        while (j < n) {
          if (energy->data[(MM_BOUND(energy, 0, i, 12), MM_BOUND(energy, 1, j, 12), i * energy->dims[1] + j)] > mm_div(total, (mm_float) (m * n), 11)) {
            eddies = eddies + 1;
          }
          j = j + 1;
        }
      }
      i = i + 1;
    }
  }
  mm_rc_dec(energy);
  mm_rc_dec(anom);
  mm_rc_dec(ssh);
  return eddies;
}

void __mm_mmap_anomaly9(mm_mat_float3 *m, mm_mat_float3 *r, int t) {
  int __mm_rem10 = t;
  int c1 = mm_mod(__mm_rem10, m->dims[1], 13);
  __mm_rem10 = mm_div(__mm_rem10, m->dims[1], 13);
  int c0 = mm_mod(__mm_rem10, m->dims[0], 13);
  __mm_rem10 = mm_div(__mm_rem10, m->dims[0], 13);
  mm_mat_float1 *__mm_slice11 = mm_alloc_float(13, 1, m->dims[2]);
  for (int o2 = 0; o2 < m->dims[2]; o2++) {
    __mm_slice11->data[o2] = m->data[(c0 * m->dims[1] + c1) * m->dims[2] + o2];
  }
  mm_mat_float1 *__mm_out12 = anomaly(__mm_slice11);
  MM_SAME(__mm_out12->dims[0], m->dims[2], "result of 'anomaly' disagrees with its fiber in dimension 0", 13);
  for (int o2 = 0; o2 < m->dims[2]; o2++) {
    r->data[(c0 * m->dims[1] + c1) * m->dims[2] + o2] = __mm_out12->data[o2];
  }
  mm_rc_dec(__mm_slice11);
  mm_rc_dec(__mm_out12);
  return;
}
