#include "nn/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "tensor/ops.hpp"

namespace hsd::nn {

using hsd::tensor::gather_rows;

namespace {

/// Copies `part` into rows [r0, r0 + part.dim(0)) of `whole`, which the
/// first call allocates with `n` rows and `part`'s trailing shape.
void place_rows(const Tensor& part, std::size_t r0, std::size_t n, Tensor& whole) {
  if (whole.rank() == 0) {
    hsd::tensor::Shape shape = part.shape();
    shape[0] = n;
    whole = Tensor(std::move(shape));
  }
  std::copy(part.storage().begin(), part.storage().end(),
            whole.data() + r0 * (part.size() / part.dim(0)));
}

}  // namespace

Tensor Network::forward(const Tensor& input) {
  if (in_row_blocks(input)) return forward_with_features(input).logits;
  return forward_layers(input, layers_.size());
}

bool Network::in_row_blocks(const Tensor& input) const {
  return input.rank() > 0 && input.dim(0) > kRowBlock &&
         std::none_of(layers_.begin(), layers_.end(),
                      [](const auto& layer) { return layer->training(); });
}

Tensor Network::forward_layers(const Tensor& input, std::size_t count) {
  backward_ready_ = std::all_of(layers_.begin(), layers_.end(),
                                [](const auto& layer) { return layer->training(); });
  if (count == 0) return input;
  // The first layer reads the caller's tensor, which nothing copies. Every
  // later activation belongs to this pass, so element-wise layers may
  // overwrite it instead of allocating another of the same size.
  Tensor x = layers_[0]->forward(input);
  for (std::size_t i = 1; i < count; ++i) layers_[i]->forward_in_place(x);
  return x;
}

ForwardResult Network::forward_pass(const Tensor& input) {
  ForwardResult out;
  Tensor x = forward_layers(input, layers_.size() - 1);
  out.logits = layers_.back()->forward(x);
  // The input of the final (classifier) layer is the feature representation.
  const std::size_t n = x.dim(0);
  out.features = x.rank() == 2 ? std::move(x) : x.reshaped({n, x.size() / n});
  return out;
}

ForwardResult Network::forward_with_features(const Tensor& input) {
  if (layers_.empty()) throw std::logic_error("Network::forward_with_features: empty net");
  if (!in_row_blocks(input)) return forward_pass(input);
  const std::size_t n = input.dim(0);
  const std::size_t row = input.size() / n;
  hsd::tensor::Shape block_shape = input.shape();
  ForwardResult out;
  for (std::size_t r0 = 0; r0 < n; r0 += kRowBlock) {
    const std::size_t rows = std::min(kRowBlock, n - r0);
    block_shape[0] = rows;
    const Tensor block(block_shape, std::vector<float>(input.data() + r0 * row,
                                                       input.data() + (r0 + rows) * row));
    const ForwardResult part = forward_pass(block);
    place_rows(part.logits, r0, n, out.logits);
    place_rows(part.features, r0, n, out.features);
  }
  return out;
}

void Network::backward(const Tensor& grad_logits) {
  if (!backward_ready_) {
    throw std::logic_error(
        "Network::backward: no training-mode forward to differentiate");
  }
  if (layers_.empty()) return;
  Tensor g = grad_logits;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) g = layers_[i]->backward(g);
  layers_[0]->backward_params(g);
}

std::vector<Param> Network::params() {
  std::vector<Param> all;
  for (auto& layer : layers_) {
    for (auto& p : layer->params()) all.push_back(p);
  }
  return all;
}

void Network::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

void Network::set_training(bool training) {
  for (auto& layer : layers_) layer->set_training(training);
}

std::size_t Network::num_params() {
  std::size_t n = 0;
  for (auto& layer : layers_) n += layer->num_params();
  return n;
}

LossResult Network::train_batch(const Tensor& x, const std::vector<int>& labels,
                                Optimizer& opt,
                                const std::vector<double>& class_weights) {
  zero_grad();
  const Tensor logits = forward(x);
  LossResult loss = softmax_cross_entropy(logits, labels, class_weights);
  backward(loss.grad_logits);
  opt.step(params());
  return loss;
}

std::vector<EpochStats> Network::fit(const Tensor& x, const std::vector<int>& labels,
                                     Optimizer& opt, std::size_t epochs,
                                     std::size_t batch_size, hsd::stats::Rng& rng,
                                     const std::vector<double>& class_weights) {
  const std::size_t n = x.dim(0);
  if (labels.size() != n) throw std::invalid_argument("Network::fit: label count mismatch");
  if (batch_size == 0) throw std::invalid_argument("Network::fit: batch_size == 0");

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  std::vector<EpochStats> history;
  history.reserve(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    rng.shuffle(order);
    EpochStats stats;
    std::size_t correct = 0;
    for (std::size_t start = 0; start < n; start += batch_size) {
      const std::size_t end = std::min(start + batch_size, n);
      std::vector<std::size_t> idx(order.begin() + static_cast<std::ptrdiff_t>(start),
                                   order.begin() + static_cast<std::ptrdiff_t>(end));
      const Tensor xb = gather_rows(x, idx);
      std::vector<int> yb(idx.size());
      for (std::size_t i = 0; i < idx.size(); ++i) yb[i] = labels[idx[i]];
      const LossResult lr = train_batch(xb, yb, opt, class_weights);
      stats.mean_loss += lr.value;
      correct += lr.correct;
      stats.batches++;
    }
    if (stats.batches > 0) stats.mean_loss /= static_cast<double>(stats.batches);
    stats.accuracy = n > 0 ? static_cast<double>(correct) / static_cast<double>(n) : 0.0;
    history.push_back(stats);
  }
  return history;
}

}  // namespace hsd::nn
