#pragma once
// Element-wise activation layers.

#include "nn/layer.hpp"

namespace hsd::nn {

/// Rectified linear unit, any rank.
class Relu : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  void forward_in_place(Tensor& x) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Relu"; }

 private:
  Tensor mask_;  // 1 where input > 0 (training mode only)
};

/// Hyperbolic tangent, any rank.
class Tanh : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  void forward_in_place(Tensor& x) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Tanh"; }

 private:
  Tensor output_;  // training mode only
};

}  // namespace hsd::nn
