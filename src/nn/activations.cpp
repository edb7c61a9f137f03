#include "nn/activations.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"

namespace hsd::nn {

Tensor Relu::forward(const Tensor& input) {
  Tensor out = input;
  forward_in_place(out);
  return out;
}

void Relu::forward_in_place(Tensor& x) {
  mask_ = Tensor();
  if (training()) {
    mask_ = Tensor(x.shape());
    // Branch-free, so it vectorizes: 1 where x > 0, else +0.
    float* mask = mask_.data();
    const float* v = x.data();
    for (std::size_t i = 0; i < x.size(); ++i) mask[i] = static_cast<float>(v[i] > 0.0F);
  }
  for (float& v : x.storage()) v = v > 0.0F ? v : 0.0F;
}

Tensor Relu::backward(const Tensor& grad_output) {
  HSD_SPAN("nn/relu_bwd");
  if (grad_output.shape() != mask_.shape()) {
    throw std::invalid_argument("Relu::backward: shape mismatch with forward");
  }
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) grad[i] *= mask_[i];
  return grad;
}

Tensor Tanh::forward(const Tensor& input) {
  Tensor out = input;
  forward_in_place(out);
  return out;
}

void Tanh::forward_in_place(Tensor& x) {
  for (float& v : x.storage()) v = std::tanh(v);
  output_ = training() ? x : Tensor();
}

Tensor Tanh::backward(const Tensor& grad_output) {
  if (grad_output.shape() != output_.shape()) {
    throw std::invalid_argument("Tanh::backward: shape mismatch with forward");
  }
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    grad[i] *= 1.0F - output_[i] * output_[i];
  }
  return grad;
}

}  // namespace hsd::nn
