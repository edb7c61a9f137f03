#pragma once
// Inverted dropout: during training each activation is zeroed with
// probability p and survivors are scaled by 1/(1-p); at inference the layer
// is the identity. Gives the small hotspot CNN cheap regularization when the
// labeled pool is only a few hundred clips.

#include "nn/layer.hpp"
#include "stats/rng.hpp"

namespace hsd::nn {

class Dropout : public Layer {
 public:
  /// `p` is the drop probability in [0, 1).
  Dropout(double p, hsd::stats::Rng rng);

  Tensor forward(const Tensor& input) override;
  void forward_in_place(Tensor& x) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Dropout"; }

  /// Persists the mask RNG so resumed training draws the same masks.
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  double drop_probability() const { return p_; }

 private:
  double p_;
  hsd::stats::Rng rng_;
  Tensor mask_;  // keep-mask scaled by 1/(1-p)
};

}  // namespace hsd::nn
