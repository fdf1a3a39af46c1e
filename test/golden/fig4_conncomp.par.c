/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
mm_mat_int2 *connComp(mm_mat_float2 *ssh);
void __mm_mmap_connComp29(mm_mat_float3 *m, mm_mat_int3 *r, int t);

mm_mat_int2 *connComp(mm_mat_float2 *ssh) {
  int m = ssh->dims[0];
  int n = ssh->dims[1];
  mm_mat_int2 *__mm_initm0 = mm_alloc_int(2, m, n);
  mm_mat_int2 *labels = __mm_initm0;
  mm_float __mm_s1 = -0.25;
  mm_mat_bool2 *__mm_ew2 = mm_alloc_bool(2, ssh->dims[0], ssh->dims[1]);
  for (int __mm_i3 = 0; __mm_i3 < mm_size(ssh); __mm_i3++) {
    __mm_ew2->data[__mm_i3] = ssh->data[__mm_i3] < __mm_s1;
  }
  mm_mat_bool2 *binary = __mm_ew2;
  {
    int i = 0;
    while (i < m) {
      {
        int j = 0;
        while (j < n) {
          if (binary->data[i * binary->dims[1] + j]) {
            labels->data[i * labels->dims[1] + j] = i * n + j + 1;
          }
          j = j + 1;
        }
      }
      i = i + 1;
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    {
      int i = 0;
      while (i < m) {
        {
          int j = 0;
          while (j < n) {
            if (binary->data[i * binary->dims[1] + j]) {
              int best = labels->data[i * labels->dims[1] + j];
              if (i > 0) {
                int __mm_s4 = i - 1;
                int __mm_s5 = i - 1;
                if (binary->data[__mm_s4 * binary->dims[1] + j] && labels->data[__mm_s5 * labels->dims[1] + j] < best) {
                  int __mm_s6 = i - 1;
                  best = labels->data[__mm_s6 * labels->dims[1] + j];
                }
              }
              if (j > 0) {
                int __mm_s7 = j - 1;
                int __mm_s8 = j - 1;
                if (binary->data[i * binary->dims[1] + __mm_s7] && labels->data[i * labels->dims[1] + __mm_s8] < best) {
                  int __mm_s9 = j - 1;
                  best = labels->data[i * labels->dims[1] + __mm_s9];
                }
              }
              if (i < m - 1) {
                int __mm_s10 = i + 1;
                int __mm_s11 = i + 1;
                if (binary->data[__mm_s10 * binary->dims[1] + j] && labels->data[__mm_s11 * labels->dims[1] + j] < best) {
                  int __mm_s12 = i + 1;
                  best = labels->data[__mm_s12 * labels->dims[1] + j];
                }
              }
              if (j < n - 1) {
                int __mm_s13 = j + 1;
                int __mm_s14 = j + 1;
                if (binary->data[i * binary->dims[1] + __mm_s13] && labels->data[i * labels->dims[1] + __mm_s14] < best) {
                  int __mm_s15 = j + 1;
                  best = labels->data[i * labels->dims[1] + __mm_s15];
                }
              }
              if (best < labels->data[i * labels->dims[1] + j]) {
                labels->data[i * labels->dims[1] + j] = best;
                changed = true;
              }
            }
            j = j + 1;
          }
        }
        i = i + 1;
      }
    }
  }
  mm_rc_dec(binary);
  return labels;
}

int main(void) {
  mm_mat_float3 *__mm_rd16 = mm_read_matrix("ssh.data");
  mm_mat_float3 *ssh = __mm_rd16;
  mm_mat_int1 *__mm_rd17 = mm_read_matrix("dates.data");
  mm_mat_int1 *dates = __mm_rd17;
  mm_mat_bool1 *__mm_ew18 = mm_alloc_bool(1, dates->dims[0]);
  #pragma omp parallel for
  for (int __mm_i19 = 0; __mm_i19 < mm_size(dates); __mm_i19++) {
    __mm_ew18->data[__mm_i19] = dates->data[__mm_i19] >= 1012000;
  }
  int __mm_cnt20 = 0;
  for (int __mm_i22 = 0; __mm_i22 < mm_size(__mm_ew18); __mm_i22++) {
    if (__mm_ew18->data[__mm_i22]) {
      __mm_cnt20 = __mm_cnt20 + 1;
    }
  }
  mm_mat_int1 *__mm_sel21 = mm_alloc_int(1, __mm_cnt20);
  int __mm_k23 = 0;
  for (int __mm_i22 = 0; __mm_i22 < mm_size(__mm_ew18); __mm_i22++) {
    if (__mm_ew18->data[__mm_i22]) {
      __mm_sel21->data[__mm_k23] = __mm_i22;
      __mm_k23 = __mm_k23 + 1;
    }
  }
  mm_mat_float3 *__mm_slice24 = mm_alloc_float(3, ssh->dims[0], ssh->dims[1], mm_size(__mm_sel21));
  for (int __mm_o25 = 0; __mm_o25 < ssh->dims[0]; __mm_o25++) {
    for (int __mm_o26 = 0; __mm_o26 < ssh->dims[1]; __mm_o26++) {
      for (int __mm_o27 = 0; __mm_o27 < mm_size(__mm_sel21); __mm_o27++) {
        __mm_slice24->data[(__mm_o25 * ssh->dims[1] + __mm_o26) * mm_size(__mm_sel21) + __mm_o27] = ssh->data[(__mm_o25 * ssh->dims[1] + __mm_o26) * ssh->dims[2] + __mm_sel21->data[__mm_o27]];
      }
    }
  }
  mm_mat_float3 *recent = __mm_slice24;
  mm_rc_dec(__mm_sel21);
  mm_rc_dec(__mm_ew18);
  mm_mat_int3 *__mm_mmapr28 = mm_alloc_int(3, recent->dims[0], recent->dims[1], recent->dims[2]);
  int __mm_total33 = recent->dims[2];
  #pragma omp parallel for
  for (int __mm_t34 = 0; __mm_t34 < __mm_total33; __mm_t34++) {
    __mm_mmap_connComp29(recent, __mm_mmapr28, __mm_t34);
  }
  mm_mat_int3 *labels = __mm_mmapr28;
  mm_write_matrix("eddyLabels.data", labels);
  mm_rc_dec(labels);
  mm_rc_dec(recent);
  mm_rc_dec(dates);
  mm_rc_dec(ssh);
  return 0;
}

void __mm_mmap_connComp29(mm_mat_float3 *m, mm_mat_int3 *r, int t) {
  int __mm_rem30 = t;
  int c2 = __mm_rem30 % m->dims[2];
  __mm_rem30 = __mm_rem30 / m->dims[2];
  mm_mat_float2 *__mm_slice31 = mm_alloc_float(2, m->dims[0], m->dims[1]);
  for (int o0 = 0; o0 < m->dims[0]; o0++) {
    for (int o1 = 0; o1 < m->dims[1]; o1++) {
      __mm_slice31->data[o0 * m->dims[1] + o1] = m->data[(o0 * m->dims[1] + o1) * m->dims[2] + c2];
    }
  }
  mm_mat_int2 *__mm_out32 = connComp(__mm_slice31);
  for (int o0 = 0; o0 < m->dims[0]; o0++) {
    for (int o1 = 0; o1 < m->dims[1]; o1++) {
      r->data[(o0 * m->dims[1] + o1) * m->dims[2] + c2] = __mm_out32->data[o0 * m->dims[1] + o1];
    }
  }
  mm_rc_dec(__mm_slice31);
  mm_rc_dec(__mm_out32);
  return;
}
