#pragma once
// Max pooling over NCHW inputs.

#include "nn/layer.hpp"

namespace hsd::nn {

class MaxPool2d : public Layer {
 public:
  /// Square window max pooling; stride defaults to the window size.
  explicit MaxPool2d(std::size_t window, std::size_t stride = 0);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "MaxPool2d"; }

  std::size_t window() const { return window_; }
  std::size_t stride() const { return stride_; }

 private:
  std::size_t window_;
  std::size_t stride_;
  hsd::tensor::Shape in_shape_;
  std::vector<std::size_t> argmax_;  // flat input index of each output max
                                     // (training mode only)
};

}  // namespace hsd::nn
