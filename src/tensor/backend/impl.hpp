#pragma once
// Internal backend implementations. Only backend.cpp / avx2.cpp and the
// differential tests include this; library code dispatches through
// backend::active() and never names a concrete backend.

#include <algorithm>
#include <cstring>
#include <utility>

#include "tensor/backend/backend.hpp"

namespace hsd::tensor::backend {

/// Number of distinct backend ordinals ever compiled in (scalar, blocked,
/// avx2). Metric caches index by Backend::ordinal(), which is < this.
inline constexpr std::size_t kBackendSlots = 3;

/// Ordinal of a backend, stable across processes: scalar=0, blocked=1,
/// avx2=2. Exposed so dispatch-site metric caches can be arrays.
std::size_t ordinal_of(const Backend& b);

/// Zeroes `count` floats at `p`. An empty range touches nothing, so an
/// empty output, which may have no storage at all, is never handed to
/// memset (a null pointer is undefined there even for zero bytes).
inline void zero_floats(float* p, std::size_t count) {
  if (count > 0) std::memset(p, 0, count * sizeof(float));
}

/// Output positions o in [lo, hi) whose input tap o*stride + offset - pad
/// lies inside [0, extent); every other position reads zero padding. One
/// kernel tap's in-bounds window, shared by im2col and col2im.
inline std::pair<std::size_t, std::size_t> tap_range(std::size_t offset,
                                                     std::size_t pad,
                                                     std::size_t stride,
                                                     std::size_t extent,
                                                     std::size_t out) {
  const std::size_t lo = pad > offset ? (pad - offset + stride - 1) / stride : 0;
  std::size_t hi = 0;
  if (extent + pad > offset) hi = std::min(out, (extent + pad - offset - 1) / stride + 1);
  return {std::min(lo, hi), hi};
}

/// The verbatim loops PR 1 parallelized — the bit-exact reference.
class ScalarBackend : public Backend {
 public:
  std::string_view name() const override { return "scalar"; }
  bool supported() const override { return true; }
  void gemm(const float* a, const float* b, float* c, std::size_t i0,
            std::size_t i1, std::size_t k, std::size_t n) const override;
  void gemm_at_b(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t i0, std::size_t i1, std::size_t k,
                 std::size_t n) const override;
  void gemm_a_bt(const float* a, const float* b, float* c, std::size_t i0,
                 std::size_t i1, std::size_t k, std::size_t n,
                 std::size_t ldb) const override;
  void im2col(const float* image, std::size_t height, std::size_t width,
              std::size_t kh, std::size_t kw, std::size_t stride,
              std::size_t pad, std::size_t oh, std::size_t ow, std::size_t r0,
              std::size_t r1, float* columns, std::size_t ld) const override;
};

/// Cache-tiled loops. Tiling only changes which (i, j) cell is visited
/// when; every cell still accumulates its k products ascending-p into one
/// accumulator, so this backend is gated on EXACT bit equality with
/// scalar (see tensor_backend_test.cpp).
class BlockedBackend : public Backend {
 public:
  std::string_view name() const override { return "blocked"; }
  bool supported() const override { return true; }
  void gemm(const float* a, const float* b, float* c, std::size_t i0,
            std::size_t i1, std::size_t k, std::size_t n) const override;
  void gemm_at_b(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t i0, std::size_t i1, std::size_t k,
                 std::size_t n) const override;
  void gemm_a_bt(const float* a, const float* b, float* c, std::size_t i0,
                 std::size_t i1, std::size_t k, std::size_t n,
                 std::size_t ldb) const override;
  /// Edge-aware: each tap's in-bounds window is computed once per matrix
  /// row, so only the border positions are zeroed and the interior is a
  /// straight copy. Pure data movement, so still bit-exact.
  void im2col(const float* image, std::size_t height, std::size_t width,
              std::size_t kh, std::size_t kw, std::size_t stride,
              std::size_t pad, std::size_t oh, std::size_t ow, std::size_t r0,
              std::size_t r1, float* columns, std::size_t ld) const override;
};

/// The AVX2+FMA backend when compiled for x86 with GCC/Clang, else
/// nullptr. The returned object's supported() still gates on CPUID at
/// runtime (compile-time availability != the deployment machine's ISA).
const Backend* avx2_backend_or_null();

}  // namespace hsd::tensor::backend
