#pragma once
// The CNN hotspot classifier: a small convolutional network over the
// low-frequency DCT feature block of a clip, exposing logits, calibrated
// probabilities, and the penultimate representation the diversity metric
// uses. Stands in for the paper's TensorFlow model.

#include <vector>

#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "stats/rng.hpp"

namespace hsd::core {

struct DetectorConfig {
  std::size_t input_side = 8;     ///< DCT block side (input is 1 x side x side)
  std::size_t conv1_channels = 8;
  std::size_t conv2_channels = 16;
  std::size_t hidden = 32;        ///< penultimate feature width
  /// Dropout probability on the hidden representation (0 disables).
  double dropout = 0.0;
  double learning_rate = 1e-3;
  std::size_t initial_epochs = 30;
  std::size_t finetune_epochs = 8;
  std::size_t batch_size = 32;
};

/// Builds the two-conv / two-dense CNN described in DetectorConfig.
nn::Network make_hotspot_cnn(const DetectorConfig& config, hsd::stats::Rng& rng);

/// Trainable hotspot classifier with class-imbalance-aware training.
class HotspotDetector {
 public:
  HotspotDetector(DetectorConfig config, hsd::stats::Rng rng);

  /// Full training from the current (initial) weights: `initial_epochs`.
  void train_initial(const tensor::Tensor& x, const std::vector<int>& labels);

  /// Fine-tuning after a batch of new labels: `finetune_epochs`.
  void finetune(const tensor::Tensor& x, const std::vector<int>& labels);

  /// Logits for a batch.
  tensor::Tensor logits(const tensor::Tensor& x);

  /// Logits plus penultimate features, from one inference-mode pass over
  /// the whole batch: the network reads `x` in place and keeps no backward
  /// state, and each convolution works through bounded chunks of whole
  /// images (nn::Conv2d::kChunk). Any batch cut yields the same bits per
  /// row.
  nn::ForwardResult forward(const tensor::Tensor& x);

  /// Calibrated [p0, p1] rows at temperature T (Eq. 5; T = 1 uncalibrated).
  std::vector<std::vector<double>> probabilities(const tensor::Tensor& x,
                                                 double temperature = 1.0);

  /// Inverse-frequency class weights for a label vector (never zero).
  static std::vector<double> class_weights(const std::vector<int>& labels);

  /// Persists / restores the CNN weights (architecture must match).
  void save(std::ostream& os) { net_.save(os); }
  void load(std::istream& is) { net_.load(is); }

  /// Persists / restores the full training state: CNN weights, per-layer
  /// extra state, Adam moments, and the detector's own RNG stream — enough
  /// for a restored detector to continue training bit-identically
  /// (checkpoint/resume of the AL loop).
  void save_state(std::ostream& os);
  void load_state(std::istream& is);

  nn::Network& network() { return net_; }
  const DetectorConfig& config() const { return config_; }

 private:
  void train_epochs(const tensor::Tensor& x, const std::vector<int>& labels,
                    std::size_t epochs);

  DetectorConfig config_;
  hsd::stats::Rng rng_;
  nn::Network net_;
  nn::Adam opt_;
};

}  // namespace hsd::core
