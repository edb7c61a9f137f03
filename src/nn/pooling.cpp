#include "nn/pooling.hpp"

#include <limits>
#include <stdexcept>

#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace hsd::nn {

MaxPool2d::MaxPool2d(std::size_t window, std::size_t stride)
    : window_(window), stride_(stride == 0 ? window : stride) {
  if (window_ == 0) throw std::invalid_argument("MaxPool2d: window == 0");
}

Tensor MaxPool2d::forward(const Tensor& input) {
  HSD_SPAN("nn/pool_fwd");
  if (input.rank() != 4) throw std::invalid_argument("MaxPool2d::forward: expected NCHW");
  const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  const std::size_t oh = hsd::tensor::conv_out_extent(h, window_, stride_, 0);
  const std::size_t ow = hsd::tensor::conv_out_extent(w, window_, stride_, 0);

  Tensor out({n, c, oh, ow});
  // Backward routes each gradient to its window's max; inference keeps no
  // record of where that was.
  in_shape_ = training() ? input.shape() : hsd::tensor::Shape{};
  argmax_ = std::vector<std::size_t>(training() ? out.size() : 0);
  std::size_t* argmax = training() ? argmax_.data() : nullptr;
  std::size_t oidx = 0;
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = input.data() + (img * c + ch) * h * w;
      const std::size_t plane_base = (img * c + ch) * h * w;
      for (std::size_t oi = 0; oi < oh; ++oi) {
        for (std::size_t oj = 0; oj < ow; ++oj, ++oidx) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = plane_base;
          for (std::size_t ki = 0; ki < window_; ++ki) {
            const std::size_t ii = oi * stride_ + ki;
            for (std::size_t kj = 0; kj < window_; ++kj) {
              const std::size_t jj = oj * stride_ + kj;
              const float v = plane[ii * w + jj];
              if (v > best) {
                best = v;
                best_idx = plane_base + ii * w + jj;
              }
            }
          }
          out[oidx] = best;
          if (argmax != nullptr) argmax[oidx] = best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  HSD_SPAN("nn/pool_bwd");
  if (grad_output.size() != argmax_.size()) {
    throw std::invalid_argument("MaxPool2d::backward: shape mismatch with forward");
  }
  Tensor grad_input(in_shape_);
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    grad_input[argmax_[i]] += grad_output[i];
  }
  return grad_input;
}

}  // namespace hsd::nn
