#include "tensor/backend/backend.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "common/registry.hpp"
#include "obs/metrics.hpp"
#include "tensor/backend/impl.hpp"

namespace hsd::tensor::backend {

// ---------------------------------------------------------------------------
// Scalar reference
// ---------------------------------------------------------------------------

void ScalarBackend::gemm(const float* a, const float* b, float* c,
                         std::size_t i0, std::size_t i1, std::size_t k,
                         std::size_t n) const {
  // ikj order keeps B and C accesses sequential; each c[i][j] accumulates
  // over p in ascending order. Skipping aip == 0 performs no FP op, which
  // is bit-identical to adding the +/-0 product (the accumulator starts at
  // +0 and +0 + (+/-0) == +0).
  zero_floats(c + i0 * n, (i1 - i0) * n);
  for (std::size_t i = i0; i < i1; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = a[i * k + p];
      if (aip == 0.0F) continue;
      const float* brow = b + p * n;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
  }
}

void ScalarBackend::gemm_at_b(const float* a, const float* b, float* c,
                              std::size_t m, std::size_t i0, std::size_t i1,
                              std::size_t k, std::size_t n) const {
  // p outer so each c[i][j] sees the same ascending-p accumulation as gemm.
  zero_floats(c + i0 * n, (i1 - i0) * n);
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = i0; i < i1; ++i) {
      const float api = arow[i];
      if (api == 0.0F) continue;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += api * brow[j];
    }
  }
}

void ScalarBackend::gemm_a_bt(const float* a, const float* b, float* c,
                              std::size_t i0, std::size_t i1, std::size_t k,
                              std::size_t n, std::size_t ldb) const {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * ldb;
      float s = 0.0F;
      for (std::size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      c[i * n + j] = s;
    }
  }
}

void ScalarBackend::im2col(const float* image, std::size_t height,
                           std::size_t width, std::size_t kh, std::size_t kw,
                           std::size_t stride, std::size_t pad, std::size_t oh,
                           std::size_t ow, std::size_t r0, std::size_t r1,
                           float* columns, std::size_t ld) const {
  for (std::size_t row = r0; row < r1; ++row) {
    const std::size_t c = row / (kh * kw);
    const std::size_t ki = (row / kw) % kh;
    const std::size_t kj = row % kw;
    float* dst = columns + row * ld;
    for (std::size_t oi = 0; oi < oh; ++oi) {
      const std::ptrdiff_t ii = static_cast<std::ptrdiff_t>(oi * stride + ki) -
                                static_cast<std::ptrdiff_t>(pad);
      for (std::size_t oj = 0; oj < ow; ++oj) {
        const std::ptrdiff_t jj =
            static_cast<std::ptrdiff_t>(oj * stride + kj) -
            static_cast<std::ptrdiff_t>(pad);
        float v = 0.0F;
        if (ii >= 0 && ii < static_cast<std::ptrdiff_t>(height) && jj >= 0 &&
            jj < static_cast<std::ptrdiff_t>(width)) {
          v = image[(c * height + static_cast<std::size_t>(ii)) * width +
                    static_cast<std::size_t>(jj)];
        }
        dst[oi * ow + oj] = v;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked (cache-tiled) — bit-exact with scalar by construction
// ---------------------------------------------------------------------------

namespace {

// L1-sized tiles: a 64x64 float B tile is 16 KiB, and the 64-float C row
// segment stays resident across the whole p tile.
constexpr std::size_t kTileJ = 64;
constexpr std::size_t kTileP = 64;

}  // namespace

void BlockedBackend::gemm(const float* a, const float* b, float* c,
                          std::size_t i0, std::size_t i1, std::size_t k,
                          std::size_t n) const {
  zero_floats(c + i0 * n, (i1 - i0) * n);
  for (std::size_t j0 = 0; j0 < n; j0 += kTileJ) {
    const std::size_t j1 = std::min(n, j0 + kTileJ);
    for (std::size_t p0 = 0; p0 < k; p0 += kTileP) {
      const std::size_t p1 = std::min(k, p0 + kTileP);
      for (std::size_t i = i0; i < i1; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (std::size_t p = p0; p < p1; ++p) {
          const float aip = arow[p];
          if (aip == 0.0F) continue;
          const float* brow = b + p * n;
          for (std::size_t j = j0; j < j1; ++j) crow[j] += aip * brow[j];
        }
      }
    }
  }
}

void BlockedBackend::gemm_at_b(const float* a, const float* b, float* c,
                               std::size_t m, std::size_t i0, std::size_t i1,
                               std::size_t k, std::size_t n) const {
  zero_floats(c + i0 * n, (i1 - i0) * n);
  for (std::size_t j0 = 0; j0 < n; j0 += kTileJ) {
    const std::size_t j1 = std::min(n, j0 + kTileJ);
    for (std::size_t p0 = 0; p0 < k; p0 += kTileP) {
      const std::size_t p1 = std::min(k, p0 + kTileP);
      for (std::size_t p = p0; p < p1; ++p) {
        const float* arow = a + p * m;
        const float* brow = b + p * n;
        for (std::size_t i = i0; i < i1; ++i) {
          const float api = arow[i];
          if (api == 0.0F) continue;
          float* crow = c + i * n;
          for (std::size_t j = j0; j < j1; ++j) crow[j] += api * brow[j];
        }
      }
    }
  }
}

void BlockedBackend::gemm_a_bt(const float* a, const float* b, float* c,
                               std::size_t i0, std::size_t i1, std::size_t k,
                               std::size_t n, std::size_t ldb) const {
  // j-tiled so a tile of B rows stays hot across all the i rows; each dot
  // product still runs ascending-p into a single accumulator.
  for (std::size_t j0 = 0; j0 < n; j0 += kTileJ) {
    const std::size_t j1 = std::min(n, j0 + kTileJ);
    for (std::size_t i = i0; i < i1; ++i) {
      const float* arow = a + i * k;
      for (std::size_t j = j0; j < j1; ++j) {
        const float* brow = b + j * ldb;
        float s = 0.0F;
        for (std::size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
        c[i * n + j] = s;
      }
    }
  }
}

void BlockedBackend::im2col(const float* image, std::size_t height,
                            std::size_t width, std::size_t kh, std::size_t kw,
                            std::size_t stride, std::size_t pad, std::size_t oh,
                            std::size_t ow, std::size_t r0, std::size_t r1,
                            float* columns, std::size_t ld) const {
  for (std::size_t row = r0; row < r1; ++row) {
    const std::size_t c = row / (kh * kw);
    const std::size_t ki = (row / kw) % kh;
    const std::size_t kj = row % kw;
    float* dst = columns + row * ld;
    const float* plane = image + c * height * width;
    // The in-bounds window of a kernel tap is the same rectangle for every
    // output row, so the bounds are worked out once per matrix row; the
    // rows above and below it read only padding.
    const auto [oi_lo, oi_hi] = tap_range(ki, pad, stride, height, oh);
    const auto [oj_lo, oj_hi] = tap_range(kj, pad, stride, width, ow);
    std::fill(dst, dst + oi_lo * ow, 0.0F);
    std::fill(dst + oi_hi * ow, dst + oh * ow, 0.0F);
    for (std::size_t oi = oi_lo; oi < oi_hi; ++oi) {
      float* drow = dst + oi * ow;
      // Plain loops, not memset/memcpy: CNN rows are a few floats long,
      // where a library call costs more than the copy.
      std::size_t oj = 0;
      for (; oj < oj_lo; ++oj) drow[oj] = 0.0F;
      if (oj_lo < oj_hi) {
        const float* src = plane + (oi * stride + ki - pad) * width +
                           (oj_lo * stride + kj - pad);
        if (stride == 1) {
          for (; oj < oj_hi; ++oj) drow[oj] = *src++;
        } else {
          for (; oj < oj_hi; ++oj, src += stride) drow[oj] = *src;
        }
      }
      for (; oj < ow; ++oj) drow[oj] = 0.0F;
    }
  }
}

// ---------------------------------------------------------------------------
// Registry & selection
// ---------------------------------------------------------------------------

namespace {

const ScalarBackend& scalar_instance() {
  static const ScalarBackend backend;
  return backend;
}

const BlockedBackend& blocked_instance() {
  static const BlockedBackend backend;
  return backend;
}

/// Compiled-in backends, fastest first. Entries may be unsupported on the
/// running CPU; callers filter with supported().
const std::vector<const Backend*>& compiled_backends() {
  static const std::vector<const Backend*> all = [] {
    std::vector<const Backend*> v;
    if (const Backend* avx2 = avx2_backend_or_null()) v.push_back(avx2);
    v.push_back(&blocked_instance());
    v.push_back(&scalar_instance());
    return v;
  }();
  return all;
}

/// Best supported backend — what "auto" resolves to.
const Backend& best_backend() {
  for (const Backend* b : compiled_backends()) {
    if (b->supported()) return *b;
  }
  return scalar_instance();
}

const Backend& resolve(std::string_view name) {
  if (name.empty() || name == "auto") return best_backend();
  if (const Backend* b = find_backend(name)) return *b;
  throw std::runtime_error("HSD_BACKEND: unknown or unsupported backend '" +
                           std::string(name) +
                           "' (available: scalar, blocked" +
                           (avx2_backend_or_null() != nullptr &&
                                    avx2_backend_or_null()->supported()
                                ? ", avx2)"
                                : ")"));
}

/// Records the selection in obs metrics so telemetry and bench JSON can
/// attribute every number to the kernels that produced it.
void record_selection(const Backend& b) {
  obs::gauge("tensor/backend").set(static_cast<double>(ordinal_of(b)));
  obs::counter("tensor/backend/" + std::string(b.name()) + "/selected").add();
}

std::atomic<const Backend*> g_active{nullptr};

}  // namespace

std::size_t ordinal_of(const Backend& b) {
  const std::string_view n = b.name();
  if (n == "blocked") return 1;
  if (n == "avx2") return 2;
  return 0;
}

const Backend& scalar_backend() { return scalar_instance(); }

std::vector<const Backend*> available_backends() {
  std::vector<const Backend*> out;
  for (const Backend* b : compiled_backends()) {
    if (b->supported()) out.push_back(b);
  }
  return out;
}

const Backend* find_backend(std::string_view name) {
  for (const Backend* b : compiled_backends()) {
    if (b->name() == name && b->supported()) return b;
  }
  return nullptr;
}

const Backend& active() {
  const Backend* b = g_active.load(std::memory_order_acquire);
  if (b == nullptr) {
    // Magic static: concurrent first calls resolve the environment once.
    static const Backend* const resolved = [] {
      const char* env = std::getenv(reg::kEnvBackend);
      const Backend& r = resolve(env == nullptr ? std::string_view{} : env);
      record_selection(r);
      return &r;
    }();
    const Backend* expected = nullptr;
    g_active.compare_exchange_strong(expected, resolved, std::memory_order_acq_rel,
                                     std::memory_order_acquire);
    b = g_active.load(std::memory_order_acquire);
  }
  return *b;
}

std::string_view active_name() { return active().name(); }

void set_active(std::string_view name) {
  const Backend& b = resolve(name);
  record_selection(b);
  g_active.store(&b, std::memory_order_release);
}

}  // namespace hsd::tensor::backend
