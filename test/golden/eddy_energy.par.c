/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
mm_mat_float1 *anomaly(mm_mat_float1 *ts);
void __mm_mmap_anomaly9(mm_mat_float3 *m, mm_mat_float3 *r, int t);

mm_mat_float1 *anomaly(mm_mat_float1 *ts) {
  int p = ts->dims[0];
  mm_float __mm_acc0 = 0.0;
  for (int k = 0; k < p; k++) {
    __mm_acc0 = __mm_acc0 + ts->data[k];
  }
  mm_float mean = __mm_acc0 / (mm_float) p;
  mm_mat_float1 *__mm_gen1 = mm_alloc_float(1, p);
  for (int k = 0; k < p; k++) {
    __mm_gen1->data[k] = ts->data[k] - mean;
  }
  return __mm_gen1;
}

int main(void) {
  int m = 48;
  int n = 48;
  int p = 64;
  mm_mat_float3 *__mm_initm4 = mm_alloc_float(3, m, n, p);
  mm_mat_float3 *ssh = __mm_initm4;
  mm_mat_float3 *__mm_gen5 = mm_alloc_float(3, m, n, p);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      for (int k = 0; k < p; k++) {
        __mm_gen5->data[(i * n + j) * p + k] = (mm_float) ((i * 7 + j * 13 + k * 5) % 37) / 37.0 - 0.5;
      }
    }
  }
  mm_rc_dec(ssh);
  ssh = __mm_gen5;
  mm_mat_float3 *__mm_mmapr8 = mm_alloc_float(3, ssh->dims[0], ssh->dims[1], ssh->dims[2]);
  int __mm_total13 = ssh->dims[0] * ssh->dims[1];
  #pragma omp parallel for
  for (int __mm_t14 = 0; __mm_t14 < __mm_total13; __mm_t14++) {
    __mm_mmap_anomaly9(ssh, __mm_mmapr8, __mm_t14);
  }
  mm_mat_float3 *anom = __mm_mmapr8;
  mm_mat_float2 *__mm_initm15 = mm_alloc_float(2, m, n);
  mm_mat_float2 *energy = __mm_initm15;
  mm_mat_float2 *__mm_gen16 = mm_alloc_float(2, m, n);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      mm_float __mm_acc17 = 0.0;
      for (int k = 0; k < p; k++) {
        __mm_acc17 = __mm_acc17 + anom->data[(i * anom->dims[1] + j) * anom->dims[2] + k] * anom->data[(i * anom->dims[1] + j) * anom->dims[2] + k];
      }
      __mm_gen16->data[i * n + j] = __mm_acc17;
    }
  }
  mm_rc_dec(energy);
  energy = __mm_gen16;
  mm_float __mm_acc20 = 0.0;
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_acc20 = __mm_acc20 + energy->data[i * energy->dims[1] + j];
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
          if (energy->data[i * energy->dims[1] + j] > total / (mm_float) (m * n)) {
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
  int c1 = __mm_rem10 % m->dims[1];
  __mm_rem10 = __mm_rem10 / m->dims[1];
  int c0 = __mm_rem10 % m->dims[0];
  __mm_rem10 = __mm_rem10 / m->dims[0];
  mm_mat_float1 *__mm_slice11 = mm_alloc_float(1, m->dims[2]);
  for (int o2 = 0; o2 < m->dims[2]; o2++) {
    __mm_slice11->data[o2] = m->data[(c0 * m->dims[1] + c1) * m->dims[2] + o2];
  }
  mm_mat_float1 *__mm_out12 = anomaly(__mm_slice11);
  for (int o2 = 0; o2 < m->dims[2]; o2++) {
    r->data[(c0 * m->dims[1] + c1) * m->dims[2] + o2] = __mm_out12->data[o2];
  }
  mm_rc_dec(__mm_slice11);
  mm_rc_dec(__mm_out12);
  return;
}
