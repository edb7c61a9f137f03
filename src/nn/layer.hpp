#pragma once
// Layer interface of the from-scratch neural-network engine.
//
// Layers are stateful: in training mode forward() caches whatever
// backward() needs, so a backward() call must follow the forward() it
// differentiates. In inference mode forward() keeps no backward state at
// all (and releases any left from training), so backward() after an
// inference-mode forward() throws. Except for Dropout, both modes compute
// bit-identical outputs. Parameters and their gradients are exposed as
// (value, grad) tensor pairs for the optimizers.

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace hsd::nn {

using hsd::tensor::Tensor;

/// A trainable parameter: the value tensor and its accumulated gradient.
struct Param {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  std::string name;
};

/// Abstract differentiable layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Maps an input batch to an output batch, caching for backward() in
  /// training mode only.
  virtual Tensor forward(const Tensor& input) = 0;

  /// forward() on a batch its owner no longer needs: replaces `x` with the
  /// output. Element-wise layers override this to write in place instead
  /// of allocating a second activation of the same size.
  virtual void forward_in_place(Tensor& x) { x = forward(x); }

  /// Maps d(loss)/d(output) to d(loss)/d(input), accumulating parameter
  /// gradients. Must be preceded by a forward() on the same batch.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// backward() for a caller that reads no input gradient, such as the
  /// network for its first layer: accumulates the parameter gradients only.
  /// Layers that can skip computing d(loss)/d(input) override it.
  virtual void backward_params(const Tensor& grad_output) { backward(grad_output); }

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param> params() { return {}; }

  /// Zeroes all parameter gradients.
  void zero_grad();

  /// Switches between training (the default) and inference behaviour:
  /// inference skips every backward cache, and dropout becomes identity.
  void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Human-readable layer name for summaries and serialization.
  virtual std::string name() const = 0;

  /// Non-parameter state that must survive a save/load round trip for
  /// bit-identical resumed training (e.g. Dropout's RNG stream). Most
  /// layers have none; the default writes/reads nothing. The payload is
  /// length-prefixed by the caller, so implementations need no framing.
  virtual void save_state(std::ostream& os) const { (void)os; }
  virtual void load_state(std::istream& is) { (void)is; }

  /// Number of scalar parameters.
  std::size_t num_params();

 private:
  bool training_ = true;
};

}  // namespace hsd::nn
