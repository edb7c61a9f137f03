#pragma once
// Flattens NCHW (or any rank >= 2) batches to (N, D) matrices.

#include "nn/layer.hpp"

namespace hsd::nn {

class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

 private:
  hsd::tensor::Shape in_shape_;  // training mode only
};

}  // namespace hsd::nn
