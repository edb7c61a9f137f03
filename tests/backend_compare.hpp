#pragma once
// Reusable differential-testing harness for kernel backends: run the same
// kernel on the scalar reference backend and a fast backend, then assert
// ULP-bounded (or exact) agreement element by element.
//
// Tolerance contract (mirrors DESIGN.md §13):
//   * exact (Tolerance{})            — byte-for-byte equality. Gates the
//     shared im2col (pure data movement) and every comparison within one
//     backend (thread counts, row partitions, strided operands).
//   * Tolerance{max_ulps, abs_floor} — an element passes when the ULP
//     distance is within max_ulps OR |a - b| <= abs_floor. The floor
//     absorbs catastrophic cancellation, where a tiny absolute difference
//     is an unbounded ULP distance; callers scale it with the reduction
//     length k.
//
// Every randomized case derives its RNG stream via runtime::derive_seed
// and failure messages print the seed and shape, so any failure replays
// with a one-line standalone program.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "stats/rng.hpp"
#include "tensor/backend/backend.hpp"

namespace hsd::testing {

/// Distance in representable floats between a and b, sign-aware: values of
/// opposite sign are |a|+|b| apart through zero (so +0 vs -0 is 0). NaN or
/// Inf anywhere yields the max distance — never silently equal.
inline std::int64_t ulp_distance(float a, float b) {
  if (!std::isfinite(a) || !std::isfinite(b)) {
    if (std::memcmp(&a, &b, sizeof(float)) == 0) return 0;
    return std::numeric_limits<std::int64_t>::max();
  }
  std::int32_t ia = 0;
  std::int32_t ib = 0;
  std::memcpy(&ia, &a, sizeof(float));
  std::memcpy(&ib, &b, sizeof(float));
  // Map the sign-magnitude float ordering onto a monotone integer line.
  const auto key = [](std::int32_t i) -> std::int64_t {
    return i < 0 ? -static_cast<std::int64_t>(i & 0x7fffffff)
                 : static_cast<std::int64_t>(i);
  };
  const std::int64_t d = key(ia) - key(ib);
  return d < 0 ? -d : d;
}

/// Agreement requirement for one kernel/backend pair. Default is exact.
struct Tolerance {
  std::int64_t max_ulps = 0;
  float abs_floor = 0.0F;

  bool exact() const { return max_ulps == 0 && abs_floor == 0.0F; }
};

/// Element-wise comparison of a kernel result against the scalar
/// reference. `context` should carry kernel, backend, shape, and seed —
/// it is the replay recipe when this fails.
inline ::testing::AssertionResult compare_buffers(const std::vector<float>& ref,
                                                  const std::vector<float>& got,
                                                  const Tolerance& tol,
                                                  const std::string& context) {
  if (ref.size() != got.size()) {
    return ::testing::AssertionFailure()
           << context << ": size mismatch, reference " << ref.size() << " vs "
           << got.size();
  }
  std::int64_t worst_ulps = 0;
  double worst_abs = 0.0;
  std::size_t failures = 0;
  std::size_t first_bad = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (tol.exact()) {
      if (std::memcmp(&ref[i], &got[i], sizeof(float)) == 0) continue;
    } else {
      const std::int64_t ulps = ulp_distance(ref[i], got[i]);
      const double abs = std::fabs(static_cast<double>(ref[i]) - got[i]);
      worst_ulps = std::max(worst_ulps, ulps);
      worst_abs = std::max(worst_abs, abs);
      if (ulps <= tol.max_ulps || abs <= static_cast<double>(tol.abs_floor)) {
        continue;
      }
    }
    if (failures == 0) first_bad = i;
    ++failures;
  }
  if (failures == 0) return ::testing::AssertionSuccess();
  std::ostringstream os;
  os << context << ": " << failures << "/" << ref.size()
     << " elements disagree; first at [" << first_bad << "] reference "
     << ref[first_bad] << " vs " << got[first_bad] << " ("
     << ulp_distance(ref[first_bad], got[first_bad]) << " ulps)";
  if (!tol.exact()) {
    os << "; worst ulps=" << worst_ulps << " abs=" << worst_abs
       << " against max_ulps=" << tol.max_ulps
       << " abs_floor=" << tol.abs_floor;
  }
  return ::testing::AssertionFailure() << os.str();
}

/// Uniform [-1, 1) fill from a derived stream: seed with
/// derive_seed(base, stream) so each case replays independently of
/// execution order.
inline std::vector<float> random_buffer(std::size_t n, std::uint64_t base,
                                        std::uint64_t stream) {
  stats::Rng rng(runtime::derive_seed(base, stream));
  std::vector<float> out(n);
  for (float& v : out) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return out;
}

/// Formats the replay recipe for one differential case.
inline std::string case_context(const std::string& kernel,
                                std::string_view backend_name,
                                const std::string& shape, std::uint64_t base,
                                std::uint64_t stream) {
  std::ostringstream os;
  os << kernel << " backend=" << backend_name << " shape=" << shape
     << " seed=derive_seed(" << base << ", " << stream << ")";
  return os.str();
}

/// Every registered non-scalar backend. Empty when only scalar is
/// available (the differential suite then has nothing to compare).
inline std::vector<const tensor::backend::Backend*> fast_backends() {
  std::vector<const tensor::backend::Backend*> out;
  for (const tensor::backend::Backend* b :
       tensor::backend::available_backends()) {
    if (b->name() != "scalar") out.push_back(b);
  }
  return out;
}

/// RAII guard: switches the active backend and restores the previous one,
/// so a failing test cannot leak its backend choice into later tests.
class BackendGuard {
 public:
  explicit BackendGuard(std::string_view name)
      : previous_(tensor::backend::active_name()) {
    tensor::backend::set_active(name);
  }
  ~BackendGuard() { tensor::backend::set_active(previous_); }

  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  std::string previous_;
};

}  // namespace hsd::testing
