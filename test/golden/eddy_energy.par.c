/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
void anomaly(mm_mat_float1 *ts, mm_mat_float1 *__mm_dst);
void __mm_mmap_anomaly9(mm_mat_float3 *m, mm_mat_float3 *r, int t);

#define MM_NSPANS 12
const char *const mm_spans[] = {
  "10:11-25",
  "11:3-65",
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
};

void anomaly(mm_mat_float1 *ts, mm_mat_float1 *__mm_dst) {
  MM_NOT_NULL(ts, 0);
  int p = ts->dims[0];
  mm_float __mm_acc0 = 0.0;
  for (int k = 0; k < p; k++) {
    __mm_acc0 = __mm_acc0 + ts->data[k];
  }
  mm_float mean = mm_div(__mm_acc0, (mm_float) p, 1);
  mm_mat_float1 *__mm_gen1 = __mm_dst;
  for (int k = 0; k < p; k++) {
    __mm_gen1->data[k] = ts->data[k] - mean;
  }
  return;
}

int main(void) {
  int m = 48;
  int n = 48;
  int p = 64;
  mm_mat_float3 *__mm_initm4 = mm_calloc_float(2, 3, m, n, p);
  mm_mat_float3 *ssh = __mm_initm4;
  mm_mat_float3 *__mm_gen5 = mm_alloc_float(3, 3, m, n, p);
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
  mm_mat_float3 *__mm_mmapr8 = mm_alloc_float(4, 3, ssh->dims[0], ssh->dims[1], ssh->dims[2]);
  int __mm_total15 = ssh->dims[0] * ssh->dims[1];
  #pragma omp parallel for
  for (int __mm_t16 = 0; __mm_t16 < __mm_total15; __mm_t16++) {
    __mm_mmap_anomaly9(ssh, __mm_mmapr8, __mm_t16);
  }
  mm_mat_float3 *anom = __mm_mmapr8;
  mm_mat_float2 *__mm_initm17 = mm_calloc_float(5, 2, m, n);
  mm_mat_float2 *energy = __mm_initm17;
  mm_mat_float2 *__mm_gen18 = mm_alloc_float(6, 2, m, n);
  #pragma omp parallel for
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      mm_float __mm_acc19 = 0.0;
      for (int k = 0; k < p; k++) {
        __mm_acc19 = __mm_acc19 + anom->data[(MM_BOUND(anom, 0, i, 8), MM_BOUND(anom, 1, j, 8), MM_BOUND(anom, 2, k, 8), (i * anom->dims[1] + j) * anom->dims[2] + k)] * anom->data[(MM_BOUND(anom, 0, i, 7), MM_BOUND(anom, 1, j, 7), MM_BOUND(anom, 2, k, 7), (i * anom->dims[1] + j) * anom->dims[2] + k)];
      }
      __mm_gen18->data[i * n + j] = __mm_acc19;
    }
  }
  mm_rc_dec(energy);
  energy = __mm_gen18;
  mm_float __mm_acc22 = 0.0;
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      __mm_acc22 = __mm_acc22 + energy->data[(MM_BOUND(energy, 0, i, 9), MM_BOUND(energy, 1, j, 9), i * energy->dims[1] + j)];
    }
  }
  mm_float total = __mm_acc22;
  int eddies = 0;
  {
    int i = 0;
    while (i < m) {
      {
        int j = 0;
        while (j < n) {
          if (energy->data[(MM_BOUND(energy, 0, i, 11), MM_BOUND(energy, 1, j, 11), i * energy->dims[1] + j)] > mm_div(total, (mm_float) (m * n), 10)) {
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
  int __mm_n10 = m->dims[2];
  int __mm_off11 = t * __mm_n10;
  mm_mat_float1 *__mm_slice13 = mm_view_float(&(mm_mat_float){0}, m->data + __mm_off11, 1, (const int[]){m->dims[2]});
  mm_mat_float1 *__mm_out14 = mm_view_float(&(mm_mat_float){0}, r->data + __mm_off11, 1, (const int[]){m->dims[2]});
  anomaly(__mm_slice13, __mm_out14);
  return;
}
