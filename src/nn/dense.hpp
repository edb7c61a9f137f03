#pragma once
// Fully connected layer: y = x W^T + b, x is (N, in), W is (out, in).

#include "nn/layer.hpp"
#include "stats/rng.hpp"

namespace hsd::nn {

class Dense : public Layer {
 public:
  /// He-initialized dense layer mapping `in_features` -> `out_features`.
  Dense(std::size_t in_features, std::size_t out_features, hsd::stats::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  std::string name() const override { return "Dense"; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }
  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Tensor w_;       // (out, in)
  Tensor b_;       // (out)
  Tensor w_grad_;
  Tensor b_grad_;
  Tensor input_;   // cached forward input (N, in), training mode only
};

}  // namespace hsd::nn
