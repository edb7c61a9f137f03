#pragma once
// Dense kernels behind the neural-network engine: GEMM, im2col/col2im for
// convolution, pooling helpers, softmax, and reductions.

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "tensor/tensor.hpp"

namespace hsd::tensor {

/// Debug-build guard: aborts if any of the `n` floats is NaN or Inf.
/// Compiled out under NDEBUG — the O(n) scan is too expensive for Release
/// hot paths, but in Debug it pins poisoned values to the kernel entry that
/// first saw them instead of a downstream metric going quietly wrong.
inline void debug_check_finite([[maybe_unused]] const float* data,
                               [[maybe_unused]] std::size_t n,
                               [[maybe_unused]] const char* what) {
#ifndef NDEBUG
  for (std::size_t i = 0; i < n; ++i) {
    HSD_CHECK(std::isfinite(data[i]), what, ": non-finite value at index ", i);
  }
#endif
}

/// C = A * B for row-major matrices; A is (m x k), B is (k x n), C is (m x n).
/// C is overwritten.
void matmul(const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n);

/// C = A^T * B; A is (k x m), B is (k x n), C is (m x n).
void matmul_at_b(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n);

/// C = A * B^T; A is (m x k), B is (n x k) with rows `ldb` >= k floats
/// apart, C is (m x n).
void matmul_a_bt(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, std::size_t ldb);

/// matmul_a_bt on a packed B (ldb == k).
inline void matmul_a_bt(const float* a, const float* b, float* c, std::size_t m,
                        std::size_t k, std::size_t n) {
  matmul_a_bt(a, b, c, m, k, n, k);
}

/// Rank-2 convenience overload: returns A(m x k) * B(k x n).
Tensor matmul(const Tensor& a, const Tensor& b);

/// Spatial output extent for a convolution/pooling dimension.
/// Requires in + 2*pad >= kernel and stride >= 1.
std::size_t conv_out_extent(std::size_t in, std::size_t kernel,
                            std::size_t stride, std::size_t pad);

/// im2col: unpacks `batch` images (N, C, H, W) side by side into one
/// (C*KH*KW) x (N*OH*OW) matrix — image b fills columns [b*OH*OW,
/// (b+1)*OH*OW) — so convolving the whole batch is a single GEMM. Zero
/// padding. batch == 1 is the single-image (C*KH*KW) x (OH*OW) lowering.
void im2col(const float* images, std::size_t batch, std::size_t channels,
            std::size_t height, std::size_t width, std::size_t kh,
            std::size_t kw, std::size_t stride, std::size_t pad,
            float* columns);

/// col2im: the adjoint of im2col. Scatters a (C*KH*KW) x (N*OH*OW) column
/// matrix, laid out as im2col lays out `batch` images, back into the N
/// image gradients (N, C, H, W). `image_grad` is accumulated into (caller
/// zeroes it). Every pixel receives its adds in kernel-tap order, so an
/// image's gradient has the same bits at any batch.
void col2im(const float* columns, std::size_t batch, std::size_t channels,
            std::size_t height, std::size_t width, std::size_t kh,
            std::size_t kw, std::size_t stride, std::size_t pad,
            float* image_grad);

/// Numerically stable softmax over the last dimension of a rank-2 tensor of
/// logits (rows = samples). Optional temperature divides logits first
/// (Eq. 5 of the paper); T must be > 0.
Tensor softmax_rows(const Tensor& logits, double temperature = 1.0);

/// Softmax of a single logit row.
std::vector<double> softmax(const std::vector<double>& logits,
                            double temperature = 1.0);

/// argmax over a row.
std::size_t argmax(const std::vector<double>& row);

/// Copies rows `indices` of the sample-major tensor `x` (any rank >= 1,
/// first dim = samples) into a new batch tensor.
Tensor gather_rows(const Tensor& x, const std::vector<std::size_t>& indices);

}  // namespace hsd::tensor
