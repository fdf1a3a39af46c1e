/* Generated by mmc — extensible CMINUS translator.
   Matrix constructs have been translated to plain parallel C
   over the mm_runtime flat-buffer matrix API. */
#include <stdbool.h>
#include "mm_runtime.h"
void connComp(mm_mat_float2 *ssh, mm_mat_int2 *__mm_dst);
void __mm_mmap_connComp33(mm_mat_float3 *m, mm_mat_int3 *r, int t);

#define MM_NSPANS 29
const char *const mm_spans[] = {
  "3:11-26",
  "4:11-26",
  "6:28-39",
  "6:3-39",
  "9:11-23",
  "9:27-39",
  "17:13-25",
  "18:22-34",
  "20:17-33",
  "20:37-53",
  "20:71-87",
  "23:17-33",
  "23:37-53",
  "23:71-87",
  "26:17-33",
  "26:37-53",
  "26:71-87",
  "29:17-33",
  "29:37-53",
  "29:71-87",
  "31:22-34",
  "32:13-25",
  "43:3-48",
  "44:3-50",
  "45:3-56",
  "45:39-55",
  "46:3-62",
  "47:3-41",
  "46:27-62",
};

void connComp(mm_mat_float2 *ssh, mm_mat_int2 *__mm_dst) {
  MM_NOT_NULL(ssh, 0);
  int m = ssh->dims[0];
  MM_NOT_NULL(ssh, 1);
  int n = ssh->dims[1];
  mm_mat_int2 *__mm_initm0 = __mm_dst;
  for (int __mm_fill = 0; __mm_fill < mm_size(__mm_initm0); __mm_fill++) {
    __mm_initm0->data[__mm_fill] = 0;
  }
  mm_mat_int2 *labels = __mm_initm0;
  MM_NOT_NULL(ssh, 2);
  mm_float __mm_s1 = -0.25;
  mm_mat_bool2 *__mm_ew2 = mm_alloc_bool(3, 2, ssh->dims[0], ssh->dims[1]);
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
          if (binary->data[(MM_BOUND(binary, 0, i, 4), MM_BOUND(binary, 1, j, 4), i * binary->dims[1] + j)]) {
            MM_BOUND(labels, 0, i, 5);
            MM_BOUND(labels, 1, j, 5);
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
            if (binary->data[(MM_BOUND(binary, 0, i, 6), MM_BOUND(binary, 1, j, 6), i * binary->dims[1] + j)]) {
              int best = labels->data[(MM_BOUND(labels, 0, i, 7), MM_BOUND(labels, 1, j, 7), i * labels->dims[1] + j)];
              if (i > 0) {
                int __mm_s4 = i - 1;
                bool __mm_cond6 = binary->data[(MM_BOUND(binary, 0, __mm_s4, 8), MM_BOUND(binary, 1, j, 8), __mm_s4 * binary->dims[1] + j)];
                if (__mm_cond6) {
                  int __mm_s5 = i - 1;
                  __mm_cond6 = labels->data[(MM_BOUND(labels, 0, __mm_s5, 9), MM_BOUND(labels, 1, j, 9), __mm_s5 * labels->dims[1] + j)] < best;
                }
                if (__mm_cond6) {
                  int __mm_s7 = i - 1;
                  best = labels->data[(MM_BOUND(labels, 0, __mm_s7, 10), MM_BOUND(labels, 1, j, 10), __mm_s7 * labels->dims[1] + j)];
                }
              }
              if (j > 0) {
                int __mm_s8 = j - 1;
                bool __mm_cond10 = binary->data[(MM_BOUND(binary, 0, i, 11), MM_BOUND(binary, 1, __mm_s8, 11), i * binary->dims[1] + __mm_s8)];
                if (__mm_cond10) {
                  int __mm_s9 = j - 1;
                  __mm_cond10 = labels->data[(MM_BOUND(labels, 0, i, 12), MM_BOUND(labels, 1, __mm_s9, 12), i * labels->dims[1] + __mm_s9)] < best;
                }
                if (__mm_cond10) {
                  int __mm_s11 = j - 1;
                  best = labels->data[(MM_BOUND(labels, 0, i, 13), MM_BOUND(labels, 1, __mm_s11, 13), i * labels->dims[1] + __mm_s11)];
                }
              }
              if (i < m - 1) {
                int __mm_s12 = i + 1;
                bool __mm_cond14 = binary->data[(MM_BOUND(binary, 0, __mm_s12, 14), MM_BOUND(binary, 1, j, 14), __mm_s12 * binary->dims[1] + j)];
                if (__mm_cond14) {
                  int __mm_s13 = i + 1;
                  __mm_cond14 = labels->data[(MM_BOUND(labels, 0, __mm_s13, 15), MM_BOUND(labels, 1, j, 15), __mm_s13 * labels->dims[1] + j)] < best;
                }
                if (__mm_cond14) {
                  int __mm_s15 = i + 1;
                  best = labels->data[(MM_BOUND(labels, 0, __mm_s15, 16), MM_BOUND(labels, 1, j, 16), __mm_s15 * labels->dims[1] + j)];
                }
              }
              if (j < n - 1) {
                int __mm_s16 = j + 1;
                bool __mm_cond18 = binary->data[(MM_BOUND(binary, 0, i, 17), MM_BOUND(binary, 1, __mm_s16, 17), i * binary->dims[1] + __mm_s16)];
                if (__mm_cond18) {
                  int __mm_s17 = j + 1;
                  __mm_cond18 = labels->data[(MM_BOUND(labels, 0, i, 18), MM_BOUND(labels, 1, __mm_s17, 18), i * labels->dims[1] + __mm_s17)] < best;
                }
                if (__mm_cond18) {
                  int __mm_s19 = j + 1;
                  best = labels->data[(MM_BOUND(labels, 0, i, 19), MM_BOUND(labels, 1, __mm_s19, 19), i * labels->dims[1] + __mm_s19)];
                }
              }
              if (best < labels->data[(MM_BOUND(labels, 0, i, 20), MM_BOUND(labels, 1, j, 20), i * labels->dims[1] + j)]) {
                MM_BOUND(labels, 0, i, 21);
                MM_BOUND(labels, 1, j, 21);
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
  return;
}

int main(void) {
  mm_mat_float3 *__mm_rd20 = mm_read_matrix("ssh.data", 22);
  mm_mat_float3 *ssh = __mm_rd20;
  mm_mat_int1 *__mm_rd21 = mm_read_matrix("dates.data", 23);
  mm_mat_int1 *dates = __mm_rd21;
  mm_mat_bool1 *__mm_ew22 = mm_alloc_bool(24, 1, dates->dims[0]);
  for (int __mm_i23 = 0; __mm_i23 < mm_size(dates); __mm_i23++) {
    __mm_ew22->data[__mm_i23] = dates->data[__mm_i23] >= 1012000;
  }
  MM_SAME(mm_size(__mm_ew22), ssh->dims[2], "mask length disagrees with dimension 2", 25);
  int __mm_cnt24 = 0;
  for (int __mm_i26 = 0; __mm_i26 < mm_size(__mm_ew22); __mm_i26++) {
    if (__mm_ew22->data[__mm_i26]) {
      __mm_cnt24 = __mm_cnt24 + 1;
    }
  }
  mm_mat_int1 *__mm_sel25 = mm_alloc_int(24, 1, __mm_cnt24);
  int __mm_k27 = 0;
  for (int __mm_i26 = 0; __mm_i26 < mm_size(__mm_ew22); __mm_i26++) {
    if (__mm_ew22->data[__mm_i26]) {
      __mm_sel25->data[__mm_k27] = __mm_i26;
      __mm_k27 = __mm_k27 + 1;
    }
  }
  mm_mat_float3 *__mm_slice28 = mm_alloc_float(24, 3, ssh->dims[0], ssh->dims[1], mm_size(__mm_sel25));
  for (int __mm_o29 = 0; __mm_o29 < ssh->dims[0]; __mm_o29++) {
    for (int __mm_o30 = 0; __mm_o30 < ssh->dims[1]; __mm_o30++) {
      for (int __mm_o31 = 0; __mm_o31 < mm_size(__mm_sel25); __mm_o31++) {
        __mm_slice28->data[(__mm_o29 * ssh->dims[1] + __mm_o30) * mm_size(__mm_sel25) + __mm_o31] = ssh->data[(__mm_o29 * ssh->dims[1] + __mm_o30) * ssh->dims[2] + __mm_sel25->data[__mm_o31]];
      }
    }
  }
  mm_mat_float3 *recent = __mm_slice28;
  mm_rc_dec(__mm_sel25);
  mm_rc_dec(__mm_ew22);
  mm_mat_int3 *__mm_mmapr32 = mm_alloc_int(26, 3, recent->dims[0], recent->dims[1], recent->dims[2]);
  int __mm_total46 = (recent->dims[2] + 7) / 8;
  for (int __mm_t47 = 0; __mm_t47 < __mm_total46; __mm_t47++) {
    __mm_mmap_connComp33(recent, __mm_mmapr32, __mm_t47);
  }
  mm_mat_int3 *labels = __mm_mmapr32;
  mm_write_matrix("eddyLabels.data", labels, 27);
  mm_rc_dec(labels);
  mm_rc_dec(recent);
  mm_rc_dec(dates);
  mm_rc_dec(ssh);
  return 0;
}

void __mm_mmap_connComp33(mm_mat_float3 *m, mm_mat_int3 *r, int t) {
  int __mm_nblk35 = (m->dims[2] + 7) / 8;
  int __mm_rem36 = t;
  int __mm_lo37 = mm_mod(__mm_rem36, __mm_nblk35, 28) * 8;
  __mm_rem36 = mm_div(__mm_rem36, __mm_nblk35, 28);
  int __mm_nb38 = mm_min(8, m->dims[2] - __mm_lo37);
  int __mm_n34 = m->dims[0] * m->dims[1];
  mm_mat_float1 *__mm_blk41 = mm_alloc_float(28, 1, __mm_nb38 * __mm_n34);
  for (int o0 = 0; o0 < m->dims[0]; o0++) {
    for (int o1 = 0; o1 < m->dims[1]; o1++) {
      for (int __mm_b39 = 0; __mm_b39 < __mm_nb38; __mm_b39++) {
        __mm_blk41->data[__mm_b39 * __mm_n34 + (o0 * m->dims[1] + o1)] = m->data[(o0 * m->dims[1] + o1) * m->dims[2] + (__mm_lo37 + __mm_b39)];
      }
    }
  }
  mm_mat_int1 *__mm_oblk42 = mm_alloc_int(28, 1, __mm_nb38 * __mm_n34);
  for (int __mm_b39 = 0; __mm_b39 < __mm_nb38; __mm_b39++) {
    int __mm_off40 = __mm_b39 * __mm_n34;
    mm_mat_float2 *__mm_slice44 = mm_view_float(&(mm_mat_float){0}, __mm_blk41->data + __mm_off40, 2, (const int[]){m->dims[0], m->dims[1]});
    mm_mat_int2 *__mm_out45 = mm_view_int(&(mm_mat_int){0}, __mm_oblk42->data + __mm_off40, 2, (const int[]){m->dims[0], m->dims[1]});
    connComp(__mm_slice44, __mm_out45);
  }
  for (int o0 = 0; o0 < m->dims[0]; o0++) {
    for (int o1 = 0; o1 < m->dims[1]; o1++) {
      for (int __mm_b39 = 0; __mm_b39 < __mm_nb38; __mm_b39++) {
        r->data[(o0 * m->dims[1] + o1) * m->dims[2] + (__mm_lo37 + __mm_b39)] = __mm_oblk42->data[__mm_b39 * __mm_n34 + (o0 * m->dims[1] + o1)];
      }
    }
  }
  mm_rc_dec(__mm_blk41);
  mm_rc_dec(__mm_oblk42);
  return;
}
