#pragma once
// Internal backend implementations. Only backend.cpp / avx2.cpp and the
// differential tests include this; library code dispatches through
// backend::active() and never names a concrete backend.

#include <cstring>

#include "tensor/backend/backend.hpp"

namespace hsd::tensor::backend {

/// Number of distinct backend ordinals ever compiled in (scalar, avx2).
/// Metric caches index by ordinal_of(), which is < this.
inline constexpr std::size_t kBackendSlots = 2;

/// Ordinal of a backend, stable across processes: scalar=0, avx2=1.
/// Exposed so dispatch-site metric caches can be arrays.
std::size_t ordinal_of(const Backend& b);

/// Zeroes `count` floats at `p`. An empty range touches nothing, so an
/// empty output, which may have no storage at all, is never handed to
/// memset (a null pointer is undefined there even for zero bytes).
inline void zero_floats(float* p, std::size_t count) {
  if (count > 0) std::memset(p, 0, count * sizeof(float));
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
};

/// The AVX2+FMA backend when compiled for x86 with GCC/Clang, else
/// nullptr. The returned object's supported() still gates on CPUID at
/// runtime (compile-time availability != the deployment machine's ISA).
const Backend* avx2_backend_or_null();

}  // namespace hsd::tensor::backend
