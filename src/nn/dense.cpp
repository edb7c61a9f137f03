#include "nn/dense.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace hsd::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, hsd::stats::Rng& rng)
    : in_(in_features),
      out_(out_features),
      w_(Tensor::randn({out_features, in_features}, rng, 0.0F,
                       std::sqrt(2.0F / static_cast<float>(in_features)))),
      b_({out_features}),
      w_grad_({out_features, in_features}),
      b_grad_({out_features}) {
  if (in_features == 0 || out_features == 0) {
    throw std::invalid_argument("Dense: zero-sized layer");
  }
}

Tensor Dense::forward(const Tensor& input) {
  HSD_SPAN("nn/dense_fwd");
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Dense::forward: bad input shape");
  }
  const std::size_t n = input.dim(0);
  Tensor out({n, out_});
  // out = x * W^T
  hsd::tensor::matmul_a_bt(input.data(), w_.data(), out.data(), n, in_, out_);
  for (std::size_t i = 0; i < n; ++i) {
    float* row = out.data() + i * out_;
    for (std::size_t j = 0; j < out_; ++j) row[j] += b_[j];
  }
  input_ = training() ? input : Tensor();
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  HSD_SPAN("nn/dense_bwd");
  if (grad_output.rank() != 2 || grad_output.dim(1) != out_) {
    throw std::invalid_argument("Dense::backward: bad grad shape");
  }
  if (input_.rank() != 2) {
    throw std::logic_error("Dense::backward: no training-mode forward to differentiate");
  }
  const std::size_t n = grad_output.dim(0);
  if (input_.dim(0) != n) {
    throw std::invalid_argument("Dense::backward: batch mismatch with forward");
  }
  // dW += dY^T * X  -> (out, in)
  Tensor w_grad_batch({out_, in_});
  hsd::tensor::matmul_at_b(grad_output.data(), input_.data(), w_grad_batch.data(),
                           out_, n, in_);
  w_grad_ += w_grad_batch;
  // db += column sums of dY
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = grad_output.data() + i * out_;
    for (std::size_t j = 0; j < out_; ++j) b_grad_[j] += row[j];
  }
  // dX = dY * W  -> (n, in)
  Tensor grad_input({n, in_});
  hsd::tensor::matmul(grad_output.data(), w_.data(), grad_input.data(), n, out_, in_);
  return grad_input;
}

std::vector<Param> Dense::params() {
  return {{&w_, &w_grad_, "weight"}, {&b_, &b_grad_, "bias"}};
}

}  // namespace hsd::nn
