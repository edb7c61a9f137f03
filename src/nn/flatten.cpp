#include "nn/flatten.hpp"

#include <stdexcept>

namespace hsd::nn {

Tensor Flatten::forward(const Tensor& input) {
  if (input.rank() < 2) throw std::invalid_argument("Flatten::forward: rank < 2");
  in_shape_ = training() ? input.shape() : hsd::tensor::Shape{};
  const std::size_t n = input.dim(0);
  return input.reshaped({n, input.size() / n});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  if (grad_output.size() != hsd::tensor::volume(in_shape_)) {
    throw std::invalid_argument("Flatten::backward: size mismatch with forward");
  }
  return grad_output.reshaped(in_shape_);
}

}  // namespace hsd::nn
