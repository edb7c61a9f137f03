#include "tensor/ops.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/backend/impl.hpp"

namespace hsd::tensor {

namespace {

// Rows per parallel_for block so each block carries enough arithmetic to
// amortize a fork. parallel_for runs inline when one block covers the
// whole range, so small GEMMs never pay for threading.
std::size_t row_grain(std::size_t ops_per_row) {
  constexpr std::size_t kMinOpsPerBlock = std::size_t{1} << 15;
  if (ops_per_row == 0) return kMinOpsPerBlock;
  return std::max<std::size_t>(1, (kMinOpsPerBlock + ops_per_row - 1) / ops_per_row);
}

// Per-backend per-kernel dispatch counters, indexed by Backend::ordinal so
// the hot path pays an array load instead of a registry name lookup.
struct KernelCounters {
  obs::Counter* gemm;
  obs::Counter* gemm_at_b;
  obs::Counter* gemm_a_bt;
};

const KernelCounters& dispatch_counters(const backend::Backend& be) {
  static const std::array<KernelCounters, backend::kBackendSlots> all = [] {
    std::array<KernelCounters, backend::kBackendSlots> out{};
    const char* names[backend::kBackendSlots] = {"scalar", "avx2"};
    for (std::size_t i = 0; i < backend::kBackendSlots; ++i) {
      const std::string prefix = std::string("tensor/") + names[i] + "/";
      out[i] = {&obs::counter(prefix + "gemm"),
                &obs::counter(prefix + "gemm_at_b"),
                &obs::counter(prefix + "gemm_a_bt")};
    }
    return out;
  }();
  return all[backend::ordinal_of(be)];
}

}  // namespace

void matmul(const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n) {
  HSD_SPAN("tensor/matmul");
  HSD_DCHECK(a != nullptr && b != nullptr && c != nullptr, "matmul: null operand");
  debug_check_finite(a, m * k, "matmul: A");
  debug_check_finite(b, k * n, "matmul: B");
  // hsd-lint: allow(no-mutable-static) — magic-static metric handle
  static obs::Counter& calls = obs::counter("tensor/matmul_calls");
  calls.add();
  // Rows of C are independent, so blocks of rows go wide; every backend
  // accumulates each element over p in ascending order, keeping results
  // bit-identical across thread counts (see backend/backend.hpp).
  const backend::Backend& be = backend::active();
  dispatch_counters(be).gemm->add();
  runtime::parallel_for(0, m, row_grain(k * n),
                        [=, &be](std::size_t i0, std::size_t i1) {
                          be.gemm(a, b, c, i0, i1, k, n);
                        });
}

void matmul_at_b(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n) {
  HSD_SPAN("tensor/matmul_at_b");
  HSD_DCHECK(a != nullptr && b != nullptr && c != nullptr, "matmul_at_b: null operand");
  debug_check_finite(a, k * m, "matmul_at_b: A");
  debug_check_finite(b, k * n, "matmul_at_b: B");
  // hsd-lint: allow(no-mutable-static) — magic-static metric handle
  static obs::Counter& calls = obs::counter("tensor/matmul_calls");
  calls.add();
  const backend::Backend& be = backend::active();
  dispatch_counters(be).gemm_at_b->add();
  runtime::parallel_for(0, m, row_grain(k * n),
                        [=, &be](std::size_t i0, std::size_t i1) {
                          be.gemm_at_b(a, b, c, m, i0, i1, k, n);
                        });
}

void matmul_a_bt(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, std::size_t ldb) {
  HSD_SPAN("tensor/matmul_a_bt");
  HSD_DCHECK(a != nullptr && b != nullptr && c != nullptr, "matmul_a_bt: null operand");
  HSD_DCHECK(ldb >= k, "matmul_a_bt: ldb < k");
  debug_check_finite(a, m * k, "matmul_a_bt: A");
  for (std::size_t j = 0; j < n; ++j) debug_check_finite(b + j * ldb, k, "matmul_a_bt: B");
  // hsd-lint: allow(no-mutable-static) — magic-static metric handle
  static obs::Counter& calls = obs::counter("tensor/matmul_calls");
  calls.add();
  const backend::Backend& be = backend::active();
  dispatch_counters(be).gemm_a_bt->add();
  runtime::parallel_for(0, m, row_grain(k * n),
                        [=, &be](std::size_t i0, std::size_t i1) {
                          be.gemm_a_bt(a, b, c, i0, i1, k, n, ldb);
                        });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("matmul: incompatible shapes");
  }
  Tensor c({a.dim(0), b.dim(1)});
  matmul(a.data(), b.data(), c.data(), a.dim(0), a.dim(1), b.dim(1));
  debug_check_finite(c.data(), c.size(), "matmul: C");
  return c;
}

std::size_t conv_out_extent(std::size_t in, std::size_t kernel,
                            std::size_t stride, std::size_t pad) {
  if (stride == 0) throw std::invalid_argument("conv_out_extent: stride == 0");
  if (in + 2 * pad < kernel) {
    throw std::invalid_argument("conv_out_extent: kernel larger than padded input");
  }
  return (in + 2 * pad - kernel) / stride + 1;
}

namespace {

/// Output positions o in [lo, hi) whose input tap o*stride + offset - pad
/// lies inside [0, extent); every other position reads zero padding. One
/// kernel tap's in-bounds window, shared by im2col and col2im.
std::pair<std::size_t, std::size_t> tap_range(std::size_t offset, std::size_t pad,
                                              std::size_t stride, std::size_t extent,
                                              std::size_t out) {
  const std::size_t lo = pad > offset ? (pad - offset + stride - 1) / stride : 0;
  std::size_t hi = 0;
  if (extent + pad > offset) hi = std::min(out, (extent + pad - offset - 1) / stride + 1);
  return {std::min(lo, hi), hi};
}

/// Rows [r0, r1) of one image's (channels*kh*kw) x (oh*ow) lowering, whose
/// rows start `ld` >= oh*ow floats apart: only the border positions are
/// zeroed, and the interior is a straight copy.
void lower_rows(const float* image, std::size_t height, std::size_t width,
                std::size_t kh, std::size_t kw, std::size_t stride,
                std::size_t pad, std::size_t oh, std::size_t ow, std::size_t r0,
                std::size_t r1, float* columns, std::size_t ld) {
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

}  // namespace

void im2col(const float* images, std::size_t batch, std::size_t channels,
            std::size_t height, std::size_t width, std::size_t kh,
            std::size_t kw, std::size_t stride, std::size_t pad,
            float* columns) {
  HSD_SPAN("tensor/im2col");
  const std::size_t oh = conv_out_extent(height, kh, stride, pad);
  const std::size_t ow = conv_out_extent(width, kw, stride, pad);
  const std::size_t out_spatial = oh * ow;
  const std::size_t ld = batch * out_spatial;
  const std::size_t image_size = channels * height * width;
  // Each (c, ki, kj) combination fills a disjoint `columns` row. im2col is
  // pure data movement, so one body serves every backend.
  runtime::parallel_for(0, channels * kh * kw, row_grain(ld),
                        [=](std::size_t r0, std::size_t r1) {
                          for (std::size_t b = 0; b < batch; ++b) {
                            lower_rows(images + b * image_size, height, width,
                                       kh, kw, stride, pad, oh, ow, r0, r1,
                                       columns + b * out_spatial, ld);
                          }
                        });
}

void col2im(const float* columns, std::size_t batch, std::size_t channels,
            std::size_t height, std::size_t width, std::size_t kh,
            std::size_t kw, std::size_t stride, std::size_t pad,
            float* image_grad) {
  HSD_SPAN("tensor/col2im");
  const std::size_t oh = conv_out_extent(height, kh, stride, pad);
  const std::size_t ow = conv_out_extent(width, kw, stride, pad);
  const std::size_t out_spatial = oh * ow;
  const std::size_t ld = batch * out_spatial;
  const std::size_t plane_size = height * width;
  // The kernel taps of one channel scatter-add into overlapping pixels, so
  // the work goes wide over (image, channel) planes, which are disjoint.
  // Within a plane the taps run in ascending (ki, kj) order, and each tap
  // adds at most once to a pixel, so every pixel receives its adds in the
  // order the single-image loop gave them. Each tap walks only its
  // in-bounds window, worked out once, as the edge-aware im2col does.
  runtime::parallel_for(
      0, batch * channels, row_grain(kh * kw * out_spatial),
      [=](std::size_t p0, std::size_t p1) {
        for (std::size_t plane = p0; plane < p1; ++plane) {
          const std::size_t b = plane / channels;
          const std::size_t c = plane % channels;
          float* dst = image_grad + plane * plane_size;
          for (std::size_t ki = 0; ki < kh; ++ki) {
            const auto [oi_lo, oi_hi] = tap_range(ki, pad, stride, height, oh);
            for (std::size_t kj = 0; kj < kw; ++kj) {
              const auto [oj_lo, oj_hi] = tap_range(kj, pad, stride, width, ow);
              if (oj_lo == oj_hi) continue;
              const float* src =
                  columns + ((c * kh + ki) * kw + kj) * ld + b * out_spatial;
              for (std::size_t oi = oi_lo; oi < oi_hi; ++oi) {
                const float* s = src + oi * ow + oj_lo;
                float* d = dst + (oi * stride + ki - pad) * width +
                           (oj_lo * stride + kj - pad);
                for (std::size_t oj = oj_lo; oj < oj_hi; ++oj, d += stride) *d += *s++;
              }
            }
          }
        }
      });
}

std::vector<double> softmax(const std::vector<double>& logits, double temperature) {
  if (temperature <= 0.0) throw std::invalid_argument("softmax: temperature <= 0");
  std::vector<double> out(logits.size());
  if (logits.empty()) return out;
  double mx = logits[0];
  for (double z : logits) mx = std::max(mx, z);
  double denom = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp((logits[i] - mx) / temperature);
    denom += out[i];
  }
  for (double& p : out) p /= denom;
  return out;
}

Tensor softmax_rows(const Tensor& logits, double temperature) {
  if (logits.rank() != 2) throw std::invalid_argument("softmax_rows: rank != 2");
  if (temperature <= 0.0) throw std::invalid_argument("softmax_rows: temperature <= 0");
  const std::size_t rows = logits.dim(0);
  const std::size_t cols = logits.dim(1);
  Tensor out({rows, cols});
  for (std::size_t i = 0; i < rows; ++i) {
    const float* src = logits.data() + i * cols;
    float* dst = out.data() + i * cols;
    float mx = src[0];
    for (std::size_t j = 1; j < cols; ++j) mx = std::max(mx, src[j]);
    float denom = 0.0F;
    for (std::size_t j = 0; j < cols; ++j) {
      dst[j] = std::exp((src[j] - mx) / static_cast<float>(temperature));
      denom += dst[j];
    }
    for (std::size_t j = 0; j < cols; ++j) dst[j] /= denom;
  }
  return out;
}

std::size_t argmax(const std::vector<double>& row) {
  if (row.empty()) throw std::invalid_argument("argmax: empty row");
  return static_cast<std::size_t>(std::max_element(row.begin(), row.end()) -
                                  row.begin());
}

Tensor gather_rows(const Tensor& x, const std::vector<std::size_t>& indices) {
  if (x.rank() < 1) throw std::invalid_argument("gather_rows: rank 0 tensor");
  const std::size_t n = x.dim(0);
  const std::size_t row_size = n > 0 ? x.size() / n : 0;
  Shape shape = x.shape();
  shape[0] = indices.size();
  Tensor out(shape);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= n) throw std::out_of_range("gather_rows: index out of range");
    std::memcpy(out.data() + i * row_size, x.data() + indices[i] * row_size,
                row_size * sizeof(float));
  }
  return out;
}

}  // namespace hsd::tensor
