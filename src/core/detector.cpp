#include "core/detector.hpp"

#include <stdexcept>

#include "common/binio.hpp"
#include "core/calibration.hpp"

namespace hsd::core {

nn::Network make_hotspot_cnn(const DetectorConfig& config, hsd::stats::Rng& rng) {
  if (config.input_side < 4 || config.input_side % 4 != 0) {
    throw std::invalid_argument("make_hotspot_cnn: input_side must be a multiple of 4");
  }
  nn::Network net;
  net.add<nn::Conv2d>(1, config.conv1_channels, 3, rng, 1, 1);
  net.add<nn::Relu>();
  net.add<nn::MaxPool2d>(2);
  net.add<nn::Conv2d>(config.conv1_channels, config.conv2_channels, 3, rng, 1, 1);
  net.add<nn::Relu>();
  net.add<nn::MaxPool2d>(2);
  net.add<nn::Flatten>();
  const std::size_t spatial = config.input_side / 4;
  net.add<nn::Dense>(config.conv2_channels * spatial * spatial, config.hidden, rng);
  net.add<nn::Relu>();
  if (config.dropout > 0.0) net.add<nn::Dropout>(config.dropout, rng.split());
  net.add<nn::Dense>(config.hidden, 2, rng);
  return net;
}

HotspotDetector::HotspotDetector(DetectorConfig config, hsd::stats::Rng rng)
    : config_(config), rng_(rng), net_(make_hotspot_cnn(config, rng_)),
      opt_(config.learning_rate) {
  // Inference mode outside train_epochs(): predictions keep no backward
  // state, and an untrained or freshly loaded replica serves the same way.
  net_.set_training(false);
}

std::vector<double> HotspotDetector::class_weights(const std::vector<int>& labels) {
  double n1 = 0.0;
  for (int y : labels) n1 += (y == 1);
  const double n = static_cast<double>(labels.size());
  const double n0 = n - n1;
  if (n0 <= 0.0 || n1 <= 0.0) return {1.0, 1.0};
  // Inverse-frequency weights normalized so the average weight is 1.
  return {n / (2.0 * n0), n / (2.0 * n1)};
}

void HotspotDetector::train_epochs(const tensor::Tensor& x,
                                   const std::vector<int>& labels,
                                   std::size_t epochs) {
  if (x.dim(0) == 0) return;
  const std::vector<double> weights = class_weights(labels);
  net_.set_training(true);
  net_.fit(x, labels, opt_, epochs, config_.batch_size, rng_, weights);
  net_.set_training(false);
}

void HotspotDetector::train_initial(const tensor::Tensor& x,
                                    const std::vector<int>& labels) {
  train_epochs(x, labels, config_.initial_epochs);
}

void HotspotDetector::finetune(const tensor::Tensor& x, const std::vector<int>& labels) {
  train_epochs(x, labels, config_.finetune_epochs);
}

tensor::Tensor HotspotDetector::logits(const tensor::Tensor& x) {
  return forward(x).logits;
}

nn::ForwardResult HotspotDetector::forward(const tensor::Tensor& x) {
  if (x.dim(0) == 0) return {};
  return net_.forward_with_features(x);
}

std::vector<std::vector<double>> HotspotDetector::probabilities(
    const tensor::Tensor& x, double temperature) {
  return calibrated_probabilities(logits(x), temperature);
}

void HotspotDetector::save_state(std::ostream& os) {
  net_.save(os, &opt_);
  hsd::common::write_string(os, rng_.save_state());
}

void HotspotDetector::load_state(std::istream& is) {
  net_.load(is, &opt_);
  rng_.load_state(hsd::common::read_string(is));
}

}  // namespace hsd::core
