#include "nn/conv.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace hsd::nn {

using hsd::tensor::col2im;
using hsd::tensor::conv_out_extent;
using hsd::tensor::im2col;

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, hsd::stats::Rng& rng, std::size_t stride,
               std::size_t pad)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(pad),
      w_(Tensor::randn({out_channels, in_channels * kernel * kernel}, rng, 0.0F,
                       std::sqrt(2.0F / static_cast<float>(
                                             in_channels * kernel * kernel)))),
      b_({out_channels}),
      w_grad_({out_channels, in_channels * kernel * kernel}),
      b_grad_({out_channels}) {
  if (in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0) {
    throw std::invalid_argument("Conv2d: zero-sized configuration");
  }
}

Tensor Conv2d::forward(const Tensor& input) {
  HSD_SPAN("nn/conv_fwd");
  if (input.rank() != 4 || input.dim(1) != in_c_) {
    throw std::invalid_argument("Conv2d::forward: expected NCHW input with matching C");
  }
  hsd::tensor::debug_check_finite(input.data(), input.size(), "Conv2d::forward input");
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(2);
  const std::size_t w = input.dim(3);
  const std::size_t oh = conv_out_extent(h, k_, stride_, pad_);
  const std::size_t ow = conv_out_extent(w, k_, stride_, pad_);
  const std::size_t patch = in_c_ * k_ * k_;
  const std::size_t out_spatial = oh * ow;
  const std::size_t image = in_c_ * h * w;

  Tensor out({n, out_c_, oh, ow});
  // Up to kChunk images lower side by side into one (patch x images*OH*OW)
  // matrix, so a chunk is one im2col and one GEMM. A GEMM's output element
  // accumulates the same products in the same order at any column count,
  // so this is the per-image convolution bit for bit, on every backend and
  // at any thread count (the kernels partition rows only).
  const std::size_t chunk = std::min(n, kChunk);
  if (training()) {
    in_shape_ = input.shape();
    lowered_.resize(patch * n * out_spatial);
  } else {
    in_shape_.clear();
    lowered_ = std::vector<float>();
    columns_.resize(patch * chunk * out_spatial);
  }
  product_.resize(out_c_ * chunk * out_spatial);
  for (std::size_t first = 0; first < n; first += chunk) {
    const std::size_t images = std::min(chunk, n - first);
    const std::size_t cols = images * out_spatial;
    float* columns =
        training() ? lowered_.data() + patch * first * out_spatial : columns_.data();
    im2col(input.data() + first * image, images, in_c_, h, w, k_, k_, stride_,
           pad_, columns);
    // (out_c x patch) * (patch x images*OH*OW)
    hsd::tensor::matmul(w_.data(), columns, product_.data(), out_c_, patch, cols);
    // Scatter back to NCHW, adding the bias on the way.
    for (std::size_t img = 0; img < images; ++img) {
      float* dst = out.data() + (first + img) * out_c_ * out_spatial;
      for (std::size_t oc = 0; oc < out_c_; ++oc) {
        const float* src = product_.data() + oc * cols + img * out_spatial;
        float* plane = dst + oc * out_spatial;
        const float bias = b_[oc];
        for (std::size_t s = 0; s < out_spatial; ++s) plane[s] = src[s] + bias;
      }
    }
  }
  return out;
}

void Conv2d::accumulate_param_grads(const Tensor& grad_output) {
  if (in_shape_.size() != 4) {
    throw std::logic_error("Conv2d::backward: no training-mode forward to differentiate");
  }
  hsd::tensor::debug_check_finite(grad_output.data(), grad_output.size(),
                                  "Conv2d::backward grad");
  const std::size_t n = in_shape_[0];
  const std::size_t oh = conv_out_extent(in_shape_[2], k_, stride_, pad_);
  const std::size_t ow = conv_out_extent(in_shape_[3], k_, stride_, pad_);
  const std::size_t patch = in_c_ * k_ * k_;
  const std::size_t out_spatial = oh * ow;
  if (grad_output.rank() != 4 || grad_output.dim(0) != n ||
      grad_output.dim(1) != out_c_ || grad_output.dim(2) != oh ||
      grad_output.dim(3) != ow) {
    throw std::invalid_argument("Conv2d::backward: bad grad shape");
  }

  // One image at a time, in image order: its dW lands in one scratch and is
  // added to the gradient, then its db sums, so every gradient element
  // receives its per-image adds in image order.
  std::vector<float> w_grad_img(out_c_ * patch);
  const std::size_t chunk = std::min(n, kChunk);
  for (std::size_t img = 0; img < n; ++img) {
    const float* gout = grad_output.data() + img * out_c_ * out_spatial;
    // The image's lowering is a column block of its chunk's matrix, whose
    // rows are `ld` floats apart: the same bytes im2col gives the image
    // alone, so dW gets the same bits as from a fresh lowering.
    const std::size_t first = img / chunk * chunk;
    const std::size_t ld = std::min(chunk, n - first) * out_spatial;
    const float* columns =
        lowered_.data() + patch * first * out_spatial + (img - first) * out_spatial;

    // dW_img = dY * columns^T : (out_c x out_spatial) * (out_spatial x patch)
    hsd::tensor::matmul_a_bt(gout, columns, w_grad_img.data(), out_c_, out_spatial,
                             patch, ld);
    for (std::size_t i = 0; i < out_c_ * patch; ++i) w_grad_[i] += w_grad_img[i];

    // db_img = spatial sums of dY
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      const float* plane = gout + oc * out_spatial;
      float s = 0.0F;
      for (std::size_t i = 0; i < out_spatial; ++i) s += plane[i];
      b_grad_[oc] += s;
    }
  }
}

void Conv2d::backward_params(const Tensor& grad_output) {
  HSD_SPAN("nn/conv_bwd");
  accumulate_param_grads(grad_output);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  HSD_SPAN("nn/conv_bwd");
  accumulate_param_grads(grad_output);
  const std::size_t n = in_shape_[0];
  const std::size_t h = in_shape_[2];
  const std::size_t w = in_shape_[3];
  const std::size_t out_spatial = grad_output.dim(2) * grad_output.dim(3);
  const std::size_t patch = in_c_ * k_ * k_;
  const std::size_t image = in_c_ * h * w;

  // dX is lowered per chunk, as the forward is: the chunk's dY gathers into
  // one (out_c x images*OH*OW) block, one GEMM gives W^T * dY for every
  // image at once, and one col2im scatters it. Each column of W^T * dY is
  // independent, and col2im gives every pixel its adds in the same order at
  // any batch, so each image's dX has the per-image bits.
  Tensor grad_input(in_shape_);
  const std::size_t chunk = std::min(n, kChunk);
  columns_.resize(patch * chunk * out_spatial);
  product_.resize(out_c_ * chunk * out_spatial);
  for (std::size_t first = 0; first < n; first += chunk) {
    const std::size_t images = std::min(chunk, n - first);
    const std::size_t cols = images * out_spatial;
    for (std::size_t img = 0; img < images; ++img) {
      const float* gout = grad_output.data() + (first + img) * out_c_ * out_spatial;
      for (std::size_t oc = 0; oc < out_c_; ++oc) {
        std::copy_n(gout + oc * out_spatial, out_spatial,
                    product_.data() + oc * cols + img * out_spatial);
      }
    }
    // dColumns = W^T * dY : (patch x out_c) * (out_c x images*OH*OW)
    hsd::tensor::matmul_at_b(w_.data(), product_.data(), columns_.data(), patch,
                             out_c_, cols);
    col2im(columns_.data(), images, in_c_, h, w, k_, k_, stride_, pad_,
           grad_input.data() + first * image);
  }
  return grad_input;
}

std::vector<Param> Conv2d::params() {
  return {{&w_, &w_grad_, "weight"}, {&b_, &b_grad_, "bias"}};
}

}  // namespace hsd::nn
