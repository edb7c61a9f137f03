#include "nn/dropout.hpp"

#include <stdexcept>

#include "common/binio.hpp"

namespace hsd::nn {

Dropout::Dropout(double p, hsd::stats::Rng rng) : p_(p), rng_(rng) {
  if (p < 0.0 || p >= 1.0) throw std::invalid_argument("Dropout: p must be in [0, 1)");
}

Tensor Dropout::forward(const Tensor& input) {
  Tensor out = input;
  forward_in_place(out);
  return out;
}

void Dropout::forward_in_place(Tensor& x) {
  if (!training()) {
    mask_ = Tensor();
    return;
  }
  if (p_ == 0.0) {
    mask_ = Tensor(x.shape(), 1.0F);
    return;
  }
  mask_ = Tensor(x.shape());
  const auto scale = static_cast<float>(1.0 / (1.0 - p_));
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (rng_.bernoulli(p_)) {
      mask_[i] = 0.0F;
      x[i] = 0.0F;
    } else {
      mask_[i] = scale;
      x[i] *= scale;
    }
  }
}

void Dropout::save_state(std::ostream& os) const {
  hsd::common::write_string(os, rng_.save_state());
}

void Dropout::load_state(std::istream& is) {
  rng_.load_state(hsd::common::read_string(is));
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (grad_output.shape() != mask_.shape()) {
    throw std::invalid_argument("Dropout::backward: shape mismatch with forward");
  }
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) grad[i] *= mask_[i];
  return grad;
}

}  // namespace hsd::nn
