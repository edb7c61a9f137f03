#pragma once
// Kernel-dispatch layer for the dense hot paths (the GEMM family).
//
// A Backend is a set of row-range kernels with one shared contract:
//
//   * Each output element c[i][j] accumulates its k products in ascending-p
//     order into a single accumulator. Threading partitions disjoint row
//     ranges, so any backend is bit-identical to itself at every
//     HSD_THREADS — the determinism property PR 1 established for the
//     scalar path holds for every backend by construction.
//   * The `scalar` backend is the bit-exact reference; `avx2` keeps the
//     ascending-p order but fuses multiply-add (FMA) and vector-reduces dot
//     products, so it agrees with scalar only within the documented ULP
//     tolerances (tests/backend_compare.hpp is the gate).
//
// im2col and col2im move data without arithmetic, so they are not backend
// kernels: tensor::im2col / tensor::col2im (ops.hpp) run one body on every
// backend.
//
// Selection order (first hit wins), resolved once on first kernel call:
//   1. HSD_BACKEND environment variable: scalar | avx2 | auto.
//      Naming an unavailable backend throws — an explicit request must not
//      silently degrade.
//   2. `auto` (also the default when the variable is unset): the fastest
//      backend the CPU supports — avx2 when compiled in and CPUID reports
//      AVX2+FMA, else scalar.
//
// Tests and benches switch backends with set_active(); the active backend
// is recorded in obs metrics (gauge `tensor/backend`, counter
// `tensor/backend/<name>/selected`) and every dispatch bumps a per-backend
// per-kernel counter (`tensor/<name>/gemm` ...), so benchmark numbers and
// telemetry always attribute to the code that produced them.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace hsd::tensor::backend {

/// Row-range kernels. `a`, `b`, `c` always point at the full operands; the
/// [i0, i1) range selects the C rows this call produces.
/// Every call fully overwrites the rows it owns.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Stable lowercase identifier ("scalar", "avx2").
  virtual std::string_view name() const = 0;

  /// True when the current CPU can execute this backend.
  virtual bool supported() const = 0;

  /// C = A * B; A is (m x k), B is (k x n). Rows [i0, i1) of C.
  virtual void gemm(const float* a, const float* b, float* c, std::size_t i0,
                    std::size_t i1, std::size_t k, std::size_t n) const = 0;

  /// C = A^T * B; A is (k x m), B is (k x n). Rows [i0, i1) of C.
  virtual void gemm_at_b(const float* a, const float* b, float* c,
                         std::size_t m, std::size_t i0, std::size_t i1,
                         std::size_t k, std::size_t n) const = 0;

  /// C = A * B^T; A is (m x k), B is (n x k) with rows `ldb` >= k floats
  /// apart (so B can be a column block of a wider matrix, such as one
  /// image of a batch lowered side by side). Rows [i0, i1) of C.
  virtual void gemm_a_bt(const float* a, const float* b, float* c,
                         std::size_t i0, std::size_t i1, std::size_t k,
                         std::size_t n, std::size_t ldb) const = 0;
};

/// The bit-exact reference backend (always available).
const Backend& scalar_backend();

/// Every compiled-in backend the current CPU supports, fastest first.
std::vector<const Backend*> available_backends();

/// Lookup by name; nullptr when unknown or unsupported on this CPU.
const Backend* find_backend(std::string_view name);

/// The backend kernels dispatch to. First call resolves HSD_BACKEND.
const Backend& active();

/// Name of the active backend (resolves it if needed).
std::string_view active_name();

/// Replaces the active backend ("scalar", "avx2", or "auto").
/// Test/bench hook; must not race with in-flight kernels (same contract as
/// runtime::set_global_threads). Throws std::runtime_error when the name is
/// unknown or the backend is unsupported on this CPU.
void set_active(std::string_view name);

}  // namespace hsd::tensor::backend
