#include "tensor/backend/backend.hpp"

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

// ---------------------------------------------------------------------------
// Registry & selection
// ---------------------------------------------------------------------------

namespace {

const ScalarBackend& scalar_instance() {
  static const ScalarBackend backend;
  return backend;
}

/// Compiled-in backends, fastest first. Entries may be unsupported on the
/// running CPU; callers filter with supported().
const std::vector<const Backend*>& compiled_backends() {
  static const std::vector<const Backend*> all = [] {
    std::vector<const Backend*> v;
    if (const Backend* avx2 = avx2_backend_or_null()) v.push_back(avx2);
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
                           std::string(name) + "' (available: scalar" +
                           (find_backend("avx2") != nullptr ? ", avx2)" : ")"));
}

/// Records the selection in obs metrics so telemetry and bench JSON can
/// attribute every number to the kernels that produced it.
void record_selection(const Backend& b) {
  obs::gauge("tensor/backend").set(static_cast<double>(ordinal_of(b)));
  obs::counter("tensor/backend/" + std::string(b.name()) + "/selected").add();
}

std::atomic<const Backend*> g_active{nullptr};

}  // namespace

std::size_t ordinal_of(const Backend& b) { return b.name() == "avx2" ? 1 : 0; }

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
