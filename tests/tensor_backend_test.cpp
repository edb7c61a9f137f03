// Property/differential suite for the kernel backends: every registered
// backend must agree with the scalar reference on randomized GEMM and DCT
// shapes, within documented ULP tolerances where it fuses or
// vector-reduces (avx2). Shapes deliberately include degenerate k=0, 1xN,
// and odd tails that straddle the 8-lane SIMD width and the 16-float
// register tile. The one im2col every backend shares must match a naive
// lowering byte for byte. Failure messages carry derive_seed arguments for
// standalone replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "backend_compare.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/dct.hpp"
#include "tensor/ops.hpp"

namespace hsd::tensor::backend {
namespace {

using hsd::testing::BackendGuard;
using hsd::testing::case_context;
using hsd::testing::compare_buffers;
using hsd::testing::fast_backends;
using hsd::testing::random_buffer;
using hsd::testing::Tolerance;

constexpr std::uint64_t kBaseSeed = 20260808;

struct GemmShape {
  std::size_t m, k, n;
  std::string str() const {
    return std::to_string(m) + "x" + std::to_string(k) + "x" +
           std::to_string(n);
  }
};

/// Shapes straddling every boundary the backends care about: the 8-float
/// AVX lane, the 16-float register tile, 64-float rows, odd remainders of
/// each, plus degenerate k=0 / 1xN / Nx1.
const std::vector<GemmShape>& gemm_shapes() {
  static const std::vector<GemmShape> shapes = {
      {1, 1, 1},    {1, 7, 1},     {1, 0, 5},    {3, 0, 0},
      {1, 16, 33},  {2, 8, 8},     {5, 3, 7},    {4, 9, 17},
      {7, 33, 9},   {8, 64, 64},   {9, 65, 63},  {16, 24, 40},
      {17, 31, 65}, {32, 128, 31}, {33, 100, 129},
  };
  return shapes;
}

/// Per-kernel tolerance for a fast backend. avx2 fuses multiply-adds (gemm
/// family) and vector-reduces dot products (gemm_a_bt), so it gets ULP
/// headroom plus an absolute floor that grows with the reduction length k.
Tolerance tolerance_for(bool reduction, std::size_t k) {
  const auto kf = static_cast<float>(k);
  if (reduction) {
    // Lane-wise reduction reorders the whole sum.
    return Tolerance{64, 1e-6F * kf};
  }
  // FMA keeps the accumulation order; only rounding points change.
  return Tolerance{16, 1e-7F * kf};
}

// ---------------------------------------------------------------------------
// GEMM family
// ---------------------------------------------------------------------------

void run_gemm_family_case(const Backend& fast, const GemmShape& s,
                          std::uint64_t stream) {
  const Backend& ref = scalar_backend();
  const std::vector<float> a = random_buffer(s.m * s.k, kBaseSeed, stream);
  const std::vector<float> bt = random_buffer(s.n * s.k, kBaseSeed, stream + 1);
  const std::vector<float> b = random_buffer(s.k * s.n, kBaseSeed, stream + 2);
  const std::vector<float> at = random_buffer(s.k * s.m, kBaseSeed, stream + 3);

  std::vector<float> expected(s.m * s.n);
  std::vector<float> got(s.m * s.n);

  ref.gemm(a.data(), b.data(), expected.data(), 0, s.m, s.k, s.n);
  fast.gemm(a.data(), b.data(), got.data(), 0, s.m, s.k, s.n);
  EXPECT_TRUE(compare_buffers(
      expected, got, tolerance_for(false, s.k),
      case_context("gemm", fast.name(), s.str(), kBaseSeed, stream)));

  ref.gemm_at_b(at.data(), b.data(), expected.data(), s.m, 0, s.m, s.k, s.n);
  fast.gemm_at_b(at.data(), b.data(), got.data(), s.m, 0, s.m, s.k, s.n);
  EXPECT_TRUE(compare_buffers(
      expected, got, tolerance_for(false, s.k),
      case_context("gemm_at_b", fast.name(), s.str(), kBaseSeed, stream)));

  ref.gemm_a_bt(a.data(), bt.data(), expected.data(), 0, s.m, s.k, s.n, s.k);
  fast.gemm_a_bt(a.data(), bt.data(), got.data(), 0, s.m, s.k, s.n, s.k);
  EXPECT_TRUE(compare_buffers(
      expected, got, tolerance_for(true, s.k),
      case_context("gemm_a_bt", fast.name(), s.str(), kBaseSeed, stream)));
}

TEST(TensorBackend, GemmFamilyMatchesScalarAcrossShapes) {
  const auto fasts = fast_backends();
  ASSERT_FALSE(available_backends().empty());
  std::uint64_t stream = 0;
  for (const GemmShape& s : gemm_shapes()) {
    for (const Backend* fast : fasts) {
      run_gemm_family_case(*fast, s, stream);
    }
    stream += 4;
  }
}

TEST(TensorBackend, DegenerateKZeroProducesZeros) {
  // k = 0 must yield an all-(+0) C on every backend, not stale memory.
  for (const Backend* be : available_backends()) {
    std::vector<float> c(6 * 5, 42.0F);
    be->gemm(nullptr, nullptr, c.data(), 0, 6, 0, 5);
    for (float v : c) {
      EXPECT_EQ(v, 0.0F) << "gemm k=0 backend=" << be->name();
    }
    std::fill(c.begin(), c.end(), 42.0F);
    be->gemm_at_b(nullptr, nullptr, c.data(), 6, 0, 6, 0, 5);
    for (float v : c) {
      EXPECT_EQ(v, 0.0F) << "gemm_at_b k=0 backend=" << be->name();
    }
    std::fill(c.begin(), c.end(), 42.0F);
    be->gemm_a_bt(nullptr, nullptr, c.data(), 0, 6, 0, 5, 0);
    for (float v : c) {
      EXPECT_EQ(v, 0.0F) << "gemm_a_bt k=0 backend=" << be->name();
    }
  }
}

TEST(TensorBackend, GemmABtReadsStridedBRows) {
  // B as a column block of a wider matrix (ldb > k), the way a batch of
  // images lowers side by side: the same bits as from the packed copy on
  // every backend, and the padding between rows (NaN here) is never read.
  for (const GemmShape& s : {GemmShape{1, 9, 5}, GemmShape{7, 64, 9},
                             GemmShape{16, 65, 72}, GemmShape{5, 0, 3}}) {
    const std::size_t ldb = s.k + 5;
    const std::vector<float> a = random_buffer(s.m * s.k, kBaseSeed, 600);
    const std::vector<float> b = random_buffer(s.n * s.k, kBaseSeed, 601);
    std::vector<float> wide(s.n * ldb, std::numeric_limits<float>::quiet_NaN());
    for (std::size_t j = 0; j < s.n; ++j) {
      std::copy_n(b.data() + j * s.k, s.k, wide.data() + j * ldb);
    }
    for (const Backend* be : available_backends()) {
      std::vector<float> packed(s.m * s.n);
      std::vector<float> strided(s.m * s.n);
      be->gemm_a_bt(a.data(), b.data(), packed.data(), 0, s.m, s.k, s.n, s.k);
      be->gemm_a_bt(a.data(), wide.data(), strided.data(), 0, s.m, s.k, s.n, ldb);
      EXPECT_TRUE(compare_buffers(
          packed, strided, Tolerance{},
          case_context("gemm_a_bt ldb=" + std::to_string(ldb), be->name(), s.str(),
                       kBaseSeed, 600)));
    }
  }
}

/// One avx2 dot product written out lane by lane: eight FMA chains over
/// ascending p, the fixed pairing of the horizontal sum, then the scalar
/// FMA tail for k % 8.
float avx2_dot(const float* a, const float* b, std::size_t k) {
  float lane[8] = {};
  const std::size_t k8 = k / 8 * 8;
  for (std::size_t p = 0; p < k8; p += 8) {
    for (std::size_t l = 0; l < 8; ++l) lane[l] = std::fmaf(a[p + l], b[p + l], lane[l]);
  }
  const float s0 = lane[0] + lane[4];
  const float s1 = lane[1] + lane[5];
  const float s2 = lane[2] + lane[6];
  const float s3 = lane[3] + lane[7];
  float s = (s0 + s2) + (s1 + s3);
  for (std::size_t p = k8; p < k; ++p) s = std::fmaf(a[p], b[p], s);
  return s;
}

TEST(TensorBackend, Avx2GemmABtMatchesOneDotAtATime) {
  // The 4-row tile shares B loads between rows; it must not change any
  // row's arithmetic, whether the row lands in a tile or in the row tail.
  const Backend* avx2 = find_backend("avx2");
  if (avx2 == nullptr) GTEST_SKIP() << "avx2 backend not available on this CPU";
  const std::size_t n = 5;
  for (std::size_t m = 1; m <= 9; ++m) {
    for (const std::size_t k : {0, 7, 8, 9, 64, 65}) {
      const std::size_t ldb = k + 3;
      const std::vector<float> a = random_buffer(m * k, kBaseSeed, 700 + m);
      const std::vector<float> b = random_buffer(n * ldb, kBaseSeed, 800 + k);
      std::vector<float> expected(m * n);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          expected[i * n + j] = avx2_dot(a.data() + i * k, b.data() + j * ldb, k);
        }
      }
      std::vector<float> got(m * n);
      avx2->gemm_a_bt(a.data(), b.data(), got.data(), 0, m, k, n, ldb);
      const GemmShape s{m, k, n};
      EXPECT_TRUE(compare_buffers(expected, got, Tolerance{},
                                  case_context("gemm_a_bt tile", "avx2", s.str(),
                                               kBaseSeed, 700 + m)));
    }
  }
}

TEST(TensorBackend, RowPartitioningIsInvariantPerBackend) {
  // The dispatcher threads by row ranges. For every backend, computing the
  // same GEMM in one range vs. many must be bit-identical — this is the
  // property that makes HSD_THREADS invisible to results on any backend.
  const GemmShape s{13, 37, 29};
  const std::vector<float> a = random_buffer(s.m * s.k, kBaseSeed, 51);
  const std::vector<float> b = random_buffer(s.k * s.n, kBaseSeed, 52);
  for (const Backend* be : available_backends()) {
    std::vector<float> whole(s.m * s.n);
    be->gemm(a.data(), b.data(), whole.data(), 0, s.m, s.k, s.n);
    std::vector<float> split(s.m * s.n);
    // Uneven cuts, including a single-row range (the pairing tail path).
    const std::size_t cuts[] = {0, 1, 4, 9, 12, 13};
    for (std::size_t ci = 0; ci + 1 < std::size(cuts); ++ci) {
      be->gemm(a.data(), b.data(), split.data(), cuts[ci], cuts[ci + 1], s.k,
               s.n);
    }
    EXPECT_TRUE(compare_buffers(
        whole, split, Tolerance{},
        case_context("gemm-partition", be->name(), s.str(), kBaseSeed, 51)));
  }
}

// ---------------------------------------------------------------------------
// im2col
// ---------------------------------------------------------------------------

struct ConvShape {
  std::size_t c, h, w, kh, kw, stride, pad;
  std::string str() const {
    return "c" + std::to_string(c) + "_" + std::to_string(h) + "x" +
           std::to_string(w) + "_k" + std::to_string(kh) + "x" +
           std::to_string(kw) + "_s" + std::to_string(stride) + "_p" +
           std::to_string(pad);
  }
};

/// The naive lowering: every position bounds-checks its input tap. Image b
/// of the batch fills columns [b*OH*OW, (b+1)*OH*OW) of rows `ld` apart.
std::vector<float> naive_im2col(const std::vector<float>& images, std::size_t batch,
                                const ConvShape& s) {
  const std::size_t oh = conv_out_extent(s.h, s.kh, s.stride, s.pad);
  const std::size_t ow = conv_out_extent(s.w, s.kw, s.stride, s.pad);
  const std::size_t ld = batch * oh * ow;
  std::vector<float> columns(s.c * s.kh * s.kw * ld);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* image = images.data() + b * s.c * s.h * s.w;
    for (std::size_t row = 0; row < s.c * s.kh * s.kw; ++row) {
      const std::size_t c = row / (s.kh * s.kw);
      const std::size_t ki = (row / s.kw) % s.kh;
      const std::size_t kj = row % s.kw;
      float* dst = columns.data() + row * ld + b * oh * ow;
      for (std::size_t oi = 0; oi < oh; ++oi) {
        const std::ptrdiff_t ii = static_cast<std::ptrdiff_t>(oi * s.stride + ki) -
                                  static_cast<std::ptrdiff_t>(s.pad);
        for (std::size_t oj = 0; oj < ow; ++oj) {
          const std::ptrdiff_t jj = static_cast<std::ptrdiff_t>(oj * s.stride + kj) -
                                    static_cast<std::ptrdiff_t>(s.pad);
          float v = 0.0F;
          if (ii >= 0 && ii < static_cast<std::ptrdiff_t>(s.h) && jj >= 0 &&
              jj < static_cast<std::ptrdiff_t>(s.w)) {
            v = image[(c * s.h + static_cast<std::size_t>(ii)) * s.w +
                      static_cast<std::size_t>(jj)];
          }
          dst[oi * ow + oj] = v;
        }
      }
    }
  }
  return columns;
}

TEST(TensorBackend, Im2colIsBitExactEverywhere) {
  // tensor::im2col copies only each tap's in-bounds window; it must give
  // the naive loop's bytes for one image and for a batch lowered side by
  // side (rows ld > OH*OW apart), at any thread count.
  const std::vector<ConvShape> shapes = {
      {1, 1, 1, 1, 1, 1, 0},  {1, 8, 8, 3, 3, 1, 1},  {2, 9, 7, 3, 3, 1, 1},
      {3, 16, 16, 5, 5, 1, 2}, {1, 10, 10, 3, 3, 2, 1}, {2, 13, 11, 4, 2, 3, 2},
      {1, 6, 6, 3, 3, 1, 4},   {1, 5, 5, 5, 5, 2, 3},
  };
  std::uint64_t stream = 300;
  for (const ConvShape& s : shapes) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3}}) {
      const std::vector<float> images =
          random_buffer(batch * s.c * s.h * s.w, kBaseSeed, stream);
      const std::vector<float> expected = naive_im2col(images, batch, s);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        runtime::set_global_threads(threads);
        std::vector<float> got(expected.size(), -123.0F);
        im2col(images.data(), batch, s.c, s.h, s.w, s.kh, s.kw, s.stride, s.pad,
               got.data());
        EXPECT_TRUE(compare_buffers(
            expected, got, Tolerance{},
            case_context("im2col batch=" + std::to_string(batch) +
                             " threads=" + std::to_string(threads),
                         active_name(), s.str(), kBaseSeed, stream)));
      }
      ++stream;
    }
  }
  runtime::set_global_threads(1);
}

// ---------------------------------------------------------------------------
// DCT-II through the dispatcher
// ---------------------------------------------------------------------------

TEST(TensorBackend, DctForwardAndInverseWithinTolerance) {
  for (const std::size_t n : {std::size_t{8}, std::size_t{17}, std::size_t{32},
                              std::size_t{33}}) {
    const Dct2d dct(n);
    const std::vector<float> block = random_buffer(n * n, kBaseSeed, 400 + n);

    BackendGuard to_scalar("scalar");
    const std::vector<float> fwd_ref = dct.forward(block);
    const std::vector<float> inv_ref = dct.inverse(fwd_ref);

    for (const Backend* be : fast_backends()) {
      tensor::backend::set_active(be->name());
      const std::vector<float> fwd = dct.forward(block);
      const std::vector<float> inv = dct.inverse(fwd_ref);
      const Tolerance tol = tolerance_for(true, n);
      EXPECT_TRUE(compare_buffers(
          fwd_ref, fwd, tol,
          case_context("dct2d_fwd", be->name(), std::to_string(n), kBaseSeed,
                       400 + n)));
      EXPECT_TRUE(compare_buffers(
          inv_ref, inv, tol,
          case_context("dct2d_inv", be->name(), std::to_string(n), kBaseSeed,
                       400 + n)));
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatcher plumbing
// ---------------------------------------------------------------------------

TEST(TensorBackend, DispatchedMatmulMatchesDirectBackendCall) {
  // The public tensor::matmul must produce exactly what the active
  // backend's kernel produces, at any thread count.
  const GemmShape s{24, 48, 56};
  const std::vector<float> a = random_buffer(s.m * s.k, kBaseSeed, 500);
  const std::vector<float> b = random_buffer(s.k * s.n, kBaseSeed, 501);
  for (const Backend* be : available_backends()) {
    BackendGuard guard(be->name());
    std::vector<float> direct(s.m * s.n);
    be->gemm(a.data(), b.data(), direct.data(), 0, s.m, s.k, s.n);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      runtime::set_global_threads(threads);
      std::vector<float> dispatched(s.m * s.n);
      matmul(a.data(), b.data(), dispatched.data(), s.m, s.k, s.n);
      EXPECT_TRUE(compare_buffers(
          direct, dispatched, Tolerance{},
          case_context("dispatch t" + std::to_string(threads), be->name(),
                       s.str(), kBaseSeed, 500)));
    }
  }
  runtime::set_global_threads(1);
}

TEST(TensorBackend, SelectionRegistryAndErrors) {
  // scalar is always available; the ordering is fastest-first and scalar
  // is last.
  const auto backends = available_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.back()->name(), "scalar");
  EXPECT_NE(find_backend("scalar"), nullptr);
  EXPECT_EQ(find_backend("neon"), nullptr);
  EXPECT_THROW(set_active("neon"), std::runtime_error);

  // An unknown name such as "blocked" fails, and the error names it and
  // every backend this CPU can run.
  EXPECT_EQ(find_backend("blocked"), nullptr);
  try {
    set_active("blocked");
    ADD_FAILURE() << "set_active(\"blocked\") did not throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'blocked'"), std::string::npos) << what;
    for (const Backend* be : backends) {
      EXPECT_NE(what.find(std::string(be->name())), std::string::npos) << what;
    }
  }

  // set_active round-trips and "auto" resolves to the fastest available.
  BackendGuard guard("scalar");
  EXPECT_EQ(active_name(), "scalar");
  set_active("auto");
  EXPECT_EQ(active_name(), backends.front()->name());
}

}  // namespace
}  // namespace hsd::tensor::backend
