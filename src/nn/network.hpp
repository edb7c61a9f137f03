#pragma once
// Sequential network container: owns layers, drives forward/backward,
// exposes logits and penultimate-layer features (the representation the
// paper's diversity metric operates on), and implements minibatch training.

#include <iosfwd>
#include <memory>
#include <vector>

#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "stats/rng.hpp"

namespace hsd::nn {

/// Output of a forward pass that also taps the penultimate representation.
struct ForwardResult {
  Tensor logits;    ///< (N, num_classes)
  Tensor features;  ///< (N, feature_dim): input to the final Dense layer
};

/// Aggregate statistics of one training epoch.
struct EpochStats {
  double mean_loss = 0.0;
  double accuracy = 0.0;
  std::size_t batches = 0;
};

/// A feed-forward network as an ordered list of layers. The last layer is
/// expected to produce logits (no softmax layer; losses and calibration
/// apply softmax themselves).
class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  /// Appends a layer constructed in place and returns a reference to it.
  template <typename L, typename... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

  /// Rows per pass of the inference-mode layer chain. A larger batch runs
  /// through every layer kRowBlock rows at a time, so its activations are
  /// bounded by the block, not by the batch; every layer computes a row the
  /// same way whatever rows share its call, so the result does not depend
  /// on it. Training-mode passes keep the whole batch for backward() and
  /// run in one pass.
  static constexpr std::size_t kRowBlock = 256;

  /// Forward pass producing logits. Reads `input` in place. In inference
  /// mode (set_training(false)) no layer keeps backward state, so the pass
  /// holds only the activations in flight; the logits are bit-identical to
  /// a training-mode pass.
  Tensor forward(const Tensor& input);

  /// Forward pass that also captures the input of the last layer as the
  /// feature representation (flattened to rank 2 if needed).
  ForwardResult forward_with_features(const Tensor& input);

  /// Backward pass from d(loss)/d(logits); accumulates parameter grads.
  /// Nothing reads the gradient of the network's input, so the first layer
  /// computes none (Layer::backward_params). Throws std::logic_error unless
  /// the last forward ran in training mode.
  void backward(const Tensor& grad_logits);

  /// All trainable parameters across layers.
  std::vector<Param> params();

  /// Zeroes all gradients.
  void zero_grad();

  /// Propagates training (the default) or inference mode to every layer.
  void set_training(bool training);

  /// Total scalar parameter count.
  std::size_t num_params();

  /// One optimization step on a batch; returns the loss diagnostics.
  LossResult train_batch(const Tensor& x, const std::vector<int>& labels,
                         Optimizer& opt,
                         const std::vector<double>& class_weights = {});

  /// Runs `epochs` shuffled-minibatch epochs over (x, labels).
  /// `x` is the full dataset batch (first dimension = samples).
  std::vector<EpochStats> fit(const Tensor& x, const std::vector<int>& labels,
                              Optimizer& opt, std::size_t epochs,
                              std::size_t batch_size, hsd::stats::Rng& rng,
                              const std::vector<double>& class_weights = {});

  /// Serializes the network in the versioned "HSD2" format: all parameters
  /// (shape-checked on load), each layer's non-parameter state (e.g.
  /// Dropout's RNG), and — when `opt` is non-null — the optimizer's
  /// accumulator state, so train→save→load→train matches uninterrupted
  /// training bit for bit.
  void save(std::ostream& os, const Optimizer* opt = nullptr);

  /// Loads either the current "HSD2" format or the legacy "HSD1"
  /// parameters-only format (older files keep working; they simply carry no
  /// layer/optimizer state). When `opt` is non-null and the stream holds
  /// optimizer state, it is restored into `opt`; its state_tag() must match
  /// the saved tag. A null `opt` skips any saved optimizer state.
  void load(std::istream& is, Optimizer* opt = nullptr);

 private:
  /// Runs the first `count` layers over `input` in one pass.
  Tensor forward_layers(const Tensor& input, std::size_t count);

  /// forward_with_features in one pass over the whole batch.
  ForwardResult forward_pass(const Tensor& input);

  /// True when `input` runs through the layers in blocks of kRowBlock rows:
  /// an inference-mode pass over more rows than that.
  bool in_row_blocks(const Tensor& input) const;

  std::vector<std::unique_ptr<Layer>> layers_;
  /// True when the last forward ran every layer in training mode, i.e. the
  /// layers hold the caches backward() differentiates through.
  bool backward_ready_ = false;
};

}  // namespace hsd::nn
