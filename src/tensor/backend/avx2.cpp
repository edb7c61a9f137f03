// AVX2 + FMA kernels with runtime CPUID dispatch. This file is the ONLY
// place SIMD intrinsics are allowed (hsd_lint rule no-raw-simd); it always
// compiles with the project's baseline flags — the vector bodies carry
// per-function target attributes, and supported() gates execution on
// __builtin_cpu_supports, so a binary built here runs unchanged on a
// pre-AVX2 machine (it just never selects this backend).
//
// Numerics contract: every c[i][j] still accumulates its k products in
// ascending-p order, but (a) multiplies and adds fuse into FMAs with no
// intermediate rounding, and (b) gemm_a_bt dot products reduce through 8
// vector lanes before a horizontal sum. Both deviations are ULP-bounded
// against the scalar reference and gated by tensor_backend_test.

#include "tensor/backend/impl.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define HSD_BACKEND_COMPILED_AVX2 1
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#endif

namespace hsd::tensor::backend {

#ifdef HSD_BACKEND_COMPILED_AVX2

namespace {

#define HSD_AVX2_TARGET __attribute__((target("avx2,fma")))

/// Horizontal sum of one ymm register. The lane-pairing order is fixed, so
/// the reduction is deterministic (just not the scalar order).
HSD_AVX2_TARGET inline float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

/// One C row: c[j] += aip * b[j] over a j range, 16 floats per iteration.
HSD_AVX2_TARGET inline void axpy_row(float aip, const float* brow, float* crow,
                                     std::size_t n) {
  const __m256 va = _mm256_set1_ps(aip);
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 c0 = _mm256_loadu_ps(crow + j);
    __m256 c1 = _mm256_loadu_ps(crow + j + 8);
    c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + j), c0);
    c1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + j + 8), c1);
    _mm256_storeu_ps(crow + j, c0);
    _mm256_storeu_ps(crow + j + 8, c1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 c0 = _mm256_loadu_ps(crow + j);
    c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + j), c0);
    _mm256_storeu_ps(crow + j, c0);
  }
  for (; j < n; ++j) crow[j] = std::fmaf(aip, brow[j], crow[j]);
}

/// Rows of B packed per step of gemm_avx2's strip loop (a 16 KiB buffer).
constexpr std::size_t kPackRows = 256;

/// C = A * B rows [i0, i1). 2 rows x 16 columns of C live in registers
/// across the p loop, so B traffic is halved and C is written once.
/// Column strips are the outer loop, and each k x 16 strip of B is first
/// packed into a contiguous buffer that every row pair then sweeps from L1.
/// Read in place, a strip strides by n floats, and at power-of-two widths
/// (a batch of images lowered side by side) its rows fall into a handful
/// of cache sets: n = 1024 ran 3x slower per column than n = 960. Packing
/// moves data only; a k range longer than the buffer parks the
/// accumulators in C between steps, which is exact, so every c[i][j] keeps
/// the same FMA chain.
HSD_AVX2_TARGET void gemm_avx2(const float* a, const float* b, float* c,
                               std::size_t i0, std::size_t i1, std::size_t k,
                               std::size_t n) {
  if (n == 0) return;  // C has no columns (and may have no storage)
  const std::size_t pairs_end = i0 + (i1 - i0) / 2 * 2;
  alignas(32) float strip[kPackRows * 16];
  std::size_t j = 0;
  for (; j + 16 <= n && pairs_end > i0; j += 16) {
    std::size_t p0 = 0;
    do {  // once even when k == 0: the strip must still be zeroed
      const std::size_t rows = std::min(k - p0, kPackRows);
      for (std::size_t p = 0; p < rows; ++p) {
        const float* src = b + (p0 + p) * n + j;
        _mm256_store_ps(strip + p * 16, _mm256_loadu_ps(src));
        _mm256_store_ps(strip + p * 16 + 8, _mm256_loadu_ps(src + 8));
      }
      for (std::size_t i = i0; i < pairs_end; i += 2) {
        const float* arow0 = a + i * k + p0;
        const float* arow1 = arow0 + k;
        float* crow0 = c + i * n + j;
        float* crow1 = crow0 + n;
        __m256 c00 = _mm256_setzero_ps();
        __m256 c01 = _mm256_setzero_ps();
        __m256 c10 = _mm256_setzero_ps();
        __m256 c11 = _mm256_setzero_ps();
        if (p0 > 0) {
          c00 = _mm256_loadu_ps(crow0);
          c01 = _mm256_loadu_ps(crow0 + 8);
          c10 = _mm256_loadu_ps(crow1);
          c11 = _mm256_loadu_ps(crow1 + 8);
        }
        for (std::size_t p = 0; p < rows; ++p) {
          const __m256 b0 = _mm256_load_ps(strip + p * 16);
          const __m256 b1 = _mm256_load_ps(strip + p * 16 + 8);
          const __m256 va0 = _mm256_set1_ps(arow0[p]);
          const __m256 va1 = _mm256_set1_ps(arow1[p]);
          c00 = _mm256_fmadd_ps(va0, b0, c00);
          c01 = _mm256_fmadd_ps(va0, b1, c01);
          c10 = _mm256_fmadd_ps(va1, b0, c10);
          c11 = _mm256_fmadd_ps(va1, b1, c11);
        }
        _mm256_storeu_ps(crow0, c00);
        _mm256_storeu_ps(crow0 + 8, c01);
        _mm256_storeu_ps(crow1, c10);
        _mm256_storeu_ps(crow1 + 8, c11);
      }
      p0 += rows;
    } while (p0 < k);
  }
  if (j < n) {
    // Odd column tail: fall back to the axpy form for every row pair.
    for (std::size_t i = i0; i < pairs_end; i += 2) {
      const float* arow0 = a + i * k;
      const float* arow1 = arow0 + k;
      float* crow0 = c + i * n;
      float* crow1 = crow0 + n;
      zero_floats(crow0 + j, n - j);
      zero_floats(crow1 + j, n - j);
      for (std::size_t p = 0; p < k; ++p) {
        axpy_row(arow0[p], b + p * n + j, crow0 + j, n - j);
        axpy_row(arow1[p], b + p * n + j, crow1 + j, n - j);
      }
    }
  }
  // Odd row tail. No zero-skip here (unlike scalar): whether a row lands in
  // the paired path or this one depends on how parallel_for partitioned the
  // rows, and bit-stability across thread counts requires the identical
  // per-element FMA chain either way.
  for (std::size_t i = pairs_end; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    zero_floats(crow, n);
    for (std::size_t p = 0; p < k; ++p) {
      axpy_row(arow[p], b + p * n, crow, n);
    }
  }
}

/// C = A^T * B rows [i0, i1); A is (k x m) so a[i] is the strided column.
HSD_AVX2_TARGET void gemm_at_b_avx2(const float* a, const float* b, float* c,
                                    std::size_t m, std::size_t i0,
                                    std::size_t i1, std::size_t k,
                                    std::size_t n) {
  for (std::size_t i = i0; i < i1; ++i) {
    float* crow = c + i * n;
    zero_floats(crow, n);
    const float* acol = a + i;
    for (std::size_t p = 0; p < k; ++p) {
      const float api = acol[p * m];
      if (api == 0.0F) continue;
      axpy_row(api, b + p * n, crow, n);
    }
  }
}

/// C = A * B^T rows [i0, i1), B rows `ldb` floats apart. Each c[i][j] is
/// one 8-lane FMA chain over ascending p, the fixed-order hsum8, then a
/// scalar FMA tail for k % 8. Four rows of A share every load of a B row:
/// the tile decides which dot products run side by side, never the
/// arithmetic of any one of them, so a row gets the same bits inside a tile
/// or in the row tail, at any row partition and thread count.
HSD_AVX2_TARGET void gemm_a_bt_avx2(const float* a, const float* b, float* c,
                                    std::size_t i0, std::size_t i1,
                                    std::size_t k, std::size_t n,
                                    std::size_t ldb) {
  const std::size_t k8 = k / 8 * 8;
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0 = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * ldb;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      for (std::size_t p = 0; p < k8; p += 8) {
        const __m256 vb = _mm256_loadu_ps(brow + p);
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a0 + p), vb, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a1 + p), vb, acc1);
        acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a2 + p), vb, acc2);
        acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a3 + p), vb, acc3);
      }
      float s0 = hsum8(acc0);
      float s1 = hsum8(acc1);
      float s2 = hsum8(acc2);
      float s3 = hsum8(acc3);
      for (std::size_t p = k8; p < k; ++p) {
        s0 = std::fmaf(a0[p], brow[p], s0);
        s1 = std::fmaf(a1[p], brow[p], s1);
        s2 = std::fmaf(a2[p], brow[p], s2);
        s3 = std::fmaf(a3[p], brow[p], s3);
      }
      c0[j] = s0;
      c0[n + j] = s1;
      c0[2 * n + j] = s2;
      c0[3 * n + j] = s3;
    }
  }
  for (; i < i1; ++i) {
    const float* arow = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * ldb;
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t p = 0; p < k8; p += 8) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p),
                              _mm256_loadu_ps(brow + p), acc);
      }
      float s = hsum8(acc);
      for (std::size_t p = k8; p < k; ++p) s = std::fmaf(arow[p], brow[p], s);
      c[i * n + j] = s;
    }
  }
}

class Avx2Backend final : public Backend {
 public:
  std::string_view name() const override { return "avx2"; }
  bool supported() const override {
    return __builtin_cpu_supports("avx2") != 0 &&
           __builtin_cpu_supports("fma") != 0;
  }
  void gemm(const float* a, const float* b, float* c, std::size_t i0,
            std::size_t i1, std::size_t k, std::size_t n) const override {
    gemm_avx2(a, b, c, i0, i1, k, n);
  }
  void gemm_at_b(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t i0, std::size_t i1, std::size_t k,
                 std::size_t n) const override {
    gemm_at_b_avx2(a, b, c, m, i0, i1, k, n);
  }
  void gemm_a_bt(const float* a, const float* b, float* c, std::size_t i0,
                 std::size_t i1, std::size_t k, std::size_t n,
                 std::size_t ldb) const override {
    gemm_a_bt_avx2(a, b, c, i0, i1, k, n, ldb);
  }
};

}  // namespace

const Backend* avx2_backend_or_null() {
  static const Avx2Backend backend;
  return &backend;
}

#else  // !HSD_BACKEND_COMPILED_AVX2

const Backend* avx2_backend_or_null() { return nullptr; }

#endif

}  // namespace hsd::tensor::backend
