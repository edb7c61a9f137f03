#include "tensor/dct.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/ops.hpp"

namespace hsd::tensor {

namespace {

obs::Counter& dct_calls() {
  // hsd-lint: allow(no-mutable-static) — magic-static metric handle
  static obs::Counter& calls = obs::counter("tensor/dct2d_calls");
  return calls;
}

obs::Counter& dct_batch_calls() {
  // hsd-lint: allow(no-mutable-static) — magic-static metric handle
  static obs::Counter& calls = obs::counter("tensor/dct2d_batch_calls");
  return calls;
}

}  // namespace

Dct2d::Dct2d(std::size_t n) : n_(n), basis_(n * n) {
  if (n == 0) throw std::invalid_argument("Dct2d: n == 0");
  const double pi = std::numbers::pi;
  const double nf = static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double scale = k == 0 ? std::sqrt(1.0 / nf) : std::sqrt(2.0 / nf);
    for (std::size_t i = 0; i < n; ++i) {
      basis_[k * n + i] = static_cast<float>(
          scale * std::cos(pi * (static_cast<double>(i) + 0.5) *
                           static_cast<double>(k) / nf));
    }
  }
}

std::vector<float> Dct2d::forward(const std::vector<float>& block) const {
  if (block.size() != n_ * n_) throw std::invalid_argument("Dct2d::forward: bad block size");
  dct_calls().add();
  // The separable transform C * X * C^T is two GEMMs, routed through the
  // kernel backend dispatch so the DCT rides the vectorized path. With the
  // scalar backend the accumulation order per element is identical to the
  // historical hand-rolled loops (ascending inner index).
  std::vector<float> tmp(n_ * n_);
  matmul(basis_.data(), block.data(), tmp.data(), n_, n_, n_);
  std::vector<float> out(n_ * n_);
  matmul_a_bt(tmp.data(), basis_.data(), out.data(), n_, n_, n_);
  return out;
}

std::vector<float> Dct2d::inverse(const std::vector<float>& coeffs) const {
  if (coeffs.size() != n_ * n_) throw std::invalid_argument("Dct2d::inverse: bad size");
  dct_calls().add();
  // X = C^T * Y * C, again two dispatched GEMMs.
  std::vector<float> tmp(n_ * n_);
  matmul_at_b(basis_.data(), coeffs.data(), tmp.data(), n_, n_, n_);
  std::vector<float> out(n_ * n_);
  matmul(tmp.data(), basis_.data(), out.data(), n_, n_, n_);
  return out;
}

std::vector<float> Dct2d::forward_lowfreq(const std::vector<float>& block,
                                          std::size_t keep) const {
  if (keep > n_) throw std::invalid_argument("Dct2d::forward_lowfreq: keep > n");
  if (block.size() != n_ * n_) {
    throw std::invalid_argument("Dct2d::forward_lowfreq: bad block size");
  }
  dct_calls().add();
  if (keep == 0) return {};
  // Only the `keep` lowest-frequency basis rows survive into the feature,
  // so the first GEMM computes just those rows of C * X and the second just
  // the keep x keep block of (C * X) * C^T. The retained rows of basis_ are
  // a contiguous prefix and every kernel is row-local, so each surviving
  // element is bit-identical to the full n x n transform followed by a crop
  // — at keep/n of the arithmetic.
  std::vector<float> tmp(keep * n_);
  matmul(basis_.data(), block.data(), tmp.data(), keep, n_, n_);
  std::vector<float> out(keep * keep);
  matmul_a_bt(tmp.data(), basis_.data(), out.data(), keep, n_, keep);
  return out;
}

void Dct2d::forward_lowfreq_batch(const float* blocks, std::size_t count,
                                  std::size_t keep, float* out) const {
  lowfreq_batch(blocks, count, keep, /*magnitude=*/false, 1.0F, out);
}

void Dct2d::forward_lowfreq_batch_abs(const float* blocks, std::size_t count,
                                      std::size_t keep, float scale,
                                      float* out) const {
  lowfreq_batch(blocks, count, keep, /*magnitude=*/true, scale, out);
}

void Dct2d::lowfreq_batch(const float* blocks, std::size_t count,
                          std::size_t keep, bool magnitude, float scale,
                          float* out) const {
  if (keep > n_) {
    throw std::invalid_argument("Dct2d::forward_lowfreq_batch: keep > n");
  }
  if (count == 0 || keep == 0) return;
  if (blocks == nullptr || out == nullptr) {
    throw std::invalid_argument("Dct2d::forward_lowfreq_batch: null buffer");
  }
  HSD_SPAN("tensor/dct2d_batch");
  dct_calls().add(count);
  dct_batch_calls().add();

  // The clips are interleaved column-wise so the first basis multiply runs
  // as one wide gemm() call, then re-gathered into per-clip rows so the
  // second runs as one tall gemm_a_bt():
  //
  //   XB   = [X_0 | X_1 | ... ]    (g x nblk*g, row i of clip c at columns
  //                                 [c*g, (c+1)*g))
  //   TMP  = C_keep * XB           (keep x nblk*g; column block c is exactly
  //                                 C_keep * X_c)
  //   TMPS = rows of TMP gathered per clip ((nblk*keep) x g, contiguous
  //                                 memcpy per row)
  //   OUT  = gemm_a_bt(TMPS, C_keep)  ((nblk*keep) x keep, written straight
  //                                 into the caller's buffer)
  //
  // Bit-exactness with the per-clip path, per element, on every backend:
  // stage 1 is the same gemm kernel over the same basis rows — each element
  // accumulates the identical products in the identical ascending order
  // whatever the column count — and stage 2 is literally the per-clip
  // second GEMM on concatenated rows of a row-local kernel. Parallel blocks
  // cover whole clips and never split an accumulation, so any HSD_THREADS
  // yields the same bits.
  const std::size_t g = n_;
  const backend::Backend& be = backend::active();
  // Clips per stacked GEMM: wide enough to amortize kernel entry, small
  // enough that XB (kChunk * g^2 floats) stays L2-resident.
  constexpr std::size_t kChunk = 64;
  const std::size_t ops = g * keep * (g + keep);
  const std::size_t grain =
      std::max<std::size_t>(kChunk, (std::size_t{1} << 18) / ops);
  runtime::parallel_for(0, count, grain, [&](std::size_t c0, std::size_t c1) {
    const std::size_t cap = std::min(kChunk, c1 - c0);
    // One uninitialized scratch block per parallel block, reused across
    // chunks: every region is fully written before it is read (xb/tmps by
    // the pack loops, tmp by the gemm kernel itself), and value-initializing
    // ~cap*g^2 floats per block would cost more memset than the transform
    // does arithmetic.
    const auto scratch = std::make_unique_for_overwrite<float[]>(
        cap * g * g + 2 * cap * keep * g);
    float* const xb = scratch.get();          // clips interleaved by column
    float* const tmp = xb + cap * g * g;      // C_keep * XB
    float* const tmps = tmp + cap * keep * g; // per-clip rows of TMP
    for (std::size_t cc0 = c0; cc0 < c1; cc0 += kChunk) {
      const std::size_t cc1 = std::min(c1, cc0 + kChunk);
      const std::size_t nblk = cc1 - cc0;
      const std::size_t w = nblk * g;  // stage-1 column count
      // Pack in tiles of a few clips so the destination writes stay mostly
      // sequential while the reads are a handful of prefetchable streams.
      constexpr std::size_t kPackTile = 8;
      for (std::size_t ct = cc0; ct < cc1; ct += kPackTile) {
        const std::size_t ce = std::min(cc1, ct + kPackTile);
        for (std::size_t i = 0; i < g; ++i) {
          for (std::size_t c = ct; c < ce; ++c) {
            std::memcpy(xb + i * w + (c - cc0) * g, blocks + c * g * g + i * g,
                        g * sizeof(float));
          }
        }
      }
      be.gemm(basis_.data(), xb, tmp, 0, keep, g, w);
      for (std::size_t l = 0; l < nblk; ++l) {
        for (std::size_t u = 0; u < keep; ++u) {
          std::memcpy(tmps + (l * keep + u) * g, tmp + u * w + l * g,
                      g * sizeof(float));
        }
      }
      float* const o = out + cc0 * keep * keep;
      be.gemm_a_bt(tmps, basis_.data(), o, 0, nblk * keep, g, keep, g);
      if (magnitude) {
        const std::size_t total = nblk * keep * keep;
        for (std::size_t i = 0; i < total; ++i) o[i] = std::abs(o[i]) * scale;
      }
    }
  });
}

}  // namespace hsd::tensor
