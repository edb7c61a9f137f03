#include "nn/network.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "common/binio.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/pooling.hpp"

namespace hsd::nn {
namespace {

using hsd::tensor::Tensor;

Network make_mlp(hsd::stats::Rng& rng) {
  Network net;
  net.add<Dense>(4, 8, rng);
  net.add<Relu>();
  net.add<Dense>(8, 2, rng);
  return net;
}

// XOR-ish separable dataset in 4 dims.
void make_toy_data(hsd::stats::Rng& rng, std::size_t n, Tensor& x,
                   std::vector<int>& y) {
  x = Tensor({n, 4});
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(rng.bernoulli(0.5));
    const double base = label == 1 ? 1.0 : -1.0;
    for (std::size_t j = 0; j < 4; ++j) {
      x[i * 4 + j] = static_cast<float>(base + rng.normal(0.0, 0.3));
    }
    y[i] = label;
  }
}

TEST(NetworkTest, ForwardShape) {
  hsd::stats::Rng rng(1);
  Network net = make_mlp(rng);
  const Tensor out = net.forward(Tensor({3, 4}));
  EXPECT_EQ(out.dim(0), 3u);
  EXPECT_EQ(out.dim(1), 2u);
}

TEST(NetworkTest, NumParamsSumsLayers) {
  hsd::stats::Rng rng(1);
  Network net = make_mlp(rng);
  EXPECT_EQ(net.num_params(), (4u * 8 + 8) + (8u * 2 + 2));
}

TEST(NetworkTest, ForwardWithFeaturesTapsPenultimate) {
  hsd::stats::Rng rng(1);
  Network net = make_mlp(rng);
  const ForwardResult r = net.forward_with_features(Tensor({5, 4}));
  EXPECT_EQ(r.logits.dim(1), 2u);
  EXPECT_EQ(r.features.dim(0), 5u);
  EXPECT_EQ(r.features.dim(1), 8u);  // ReLU output feeding the last Dense
}

TEST(NetworkTest, FeaturesAreFlattenedForConvNets) {
  hsd::stats::Rng rng(2);
  Network net;
  net.add<Conv2d>(1, 2, 3, rng, 1, 1);
  net.add<Relu>();
  net.add<Flatten>();
  net.add<Dense>(2 * 4 * 4, 2, rng);
  const ForwardResult r = net.forward_with_features(Tensor({3, 1, 4, 4}));
  EXPECT_EQ(r.features.rank(), 2u);
  EXPECT_EQ(r.features.dim(1), 32u);
}

TEST(NetworkTest, BackwardThrowsAfterInferenceModeForward) {
  hsd::stats::Rng rng(3);
  Network net;
  net.add<Conv2d>(1, 2, 3, rng, 1, 1);
  net.add<Relu>();
  net.add<MaxPool2d>(2);
  net.add<Flatten>();
  net.add<Dense>(2 * 2 * 2, 2, rng);
  const Tensor x = Tensor::randn({3, 1, 4, 4}, rng);
  const Tensor grad({3, 2}, 1.0F);

  EXPECT_THROW(net.backward(grad), std::logic_error);  // no forward yet
  net.forward(x);
  EXPECT_NO_THROW(net.backward(grad));

  // Inference mode keeps no backward state: neither the network nor any
  // layer can differentiate the pass, and the training caches left over
  // from the last training-mode pass are gone too.
  net.set_training(false);
  net.forward(x);
  EXPECT_THROW(net.backward(grad), std::logic_error);
  EXPECT_THROW(net.layer(0).backward(Tensor({3, 2, 4, 4})), std::logic_error);
  EXPECT_THROW(net.layer(4).backward(grad), std::logic_error);
  EXPECT_THROW(net.layer(1).backward(Tensor({3, 2, 4, 4})), std::invalid_argument);
  EXPECT_THROW(net.layer(2).backward(Tensor({3, 2, 2, 2})), std::invalid_argument);

  net.set_training(true);
  net.forward(x);
  EXPECT_NO_THROW(net.backward(grad));
}

TEST(NetworkTest, TrainingReducesLoss) {
  hsd::stats::Rng rng(7);
  Network net = make_mlp(rng);
  Tensor x;
  std::vector<int> y;
  make_toy_data(rng, 128, x, y);
  Adam opt(1e-2);
  const auto history = net.fit(x, y, opt, 30, 16, rng);
  ASSERT_EQ(history.size(), 30u);
  EXPECT_LT(history.back().mean_loss, history.front().mean_loss);
  EXPECT_GT(history.back().accuracy, 0.95);
}

TEST(NetworkTest, TrainBatchStepsOptimizer) {
  hsd::stats::Rng rng(9);
  Network net = make_mlp(rng);
  Tensor x;
  std::vector<int> y;
  make_toy_data(rng, 16, x, y);
  Adam opt(1e-2);
  const LossResult before = net.train_batch(x, y, opt);
  double loss_after = 0.0;
  for (int i = 0; i < 20; ++i) {
    loss_after = net.train_batch(x, y, opt).value;
  }
  EXPECT_LT(loss_after, before.value);
}

TEST(NetworkTest, FitValidatesArguments) {
  hsd::stats::Rng rng(1);
  Network net = make_mlp(rng);
  Adam opt(1e-3);
  Tensor x({4, 4});
  std::vector<int> y{0, 1, 0};  // wrong size
  EXPECT_THROW(net.fit(x, y, opt, 1, 8, rng), std::invalid_argument);
  std::vector<int> y2{0, 1, 0, 1};
  EXPECT_THROW(net.fit(x, y2, opt, 1, 0, rng), std::invalid_argument);
}

TEST(NetworkTest, SaveLoadRoundTrip) {
  hsd::stats::Rng rng(11);
  Network a = make_mlp(rng);
  Network b = make_mlp(rng);  // different random weights
  const Tensor x = Tensor::randn({3, 4}, rng);
  std::stringstream buf;
  a.save(buf);
  b.load(buf);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(NetworkTest, LoadRejectsWrongArchitecture) {
  hsd::stats::Rng rng(11);
  Network a = make_mlp(rng);
  Network small;
  small.add<Dense>(4, 2, rng);
  std::stringstream buf;
  a.save(buf);
  EXPECT_THROW(small.load(buf), std::runtime_error);
}

TEST(NetworkTest, LoadRejectsGarbage) {
  hsd::stats::Rng rng(1);
  Network net = make_mlp(rng);
  std::stringstream buf("not a model");
  EXPECT_THROW(net.load(buf), std::runtime_error);
}

TEST(NetworkTest, SaveLoadWithOptimizerContinuesTrainingBitIdentical) {
  // Checkpoint semantics: snapshotting weights + Adam moments + the data
  // RNG mid-training and continuing in a fresh network must land on
  // bit-identical weights — the property the AL-loop resume relies on.
  hsd::stats::Rng rng(21);
  Network a = make_mlp(rng);
  Tensor x;
  std::vector<int> y;
  make_toy_data(rng, 64, x, y);
  Adam opt_a(1e-2);
  hsd::stats::Rng fit_rng(77);
  a.fit(x, y, opt_a, 8, 16, fit_rng);

  std::stringstream buf;
  a.save(buf, &opt_a);
  const std::string fit_rng_state = fit_rng.save_state();

  a.fit(x, y, opt_a, 8, 16, fit_rng);  // the uninterrupted continuation

  hsd::stats::Rng other_rng(99);
  Network b = make_mlp(other_rng);  // different random init, all overwritten
  Adam opt_b(1e-2);
  b.load(buf, &opt_b);
  hsd::stats::Rng resumed_rng;
  resumed_rng.load_state(fit_rng_state);
  b.fit(x, y, opt_b, 8, 16, resumed_rng);

  const Tensor probe({2, 4}, std::vector<float>{1, -1, 0.5f, 2, 0, 1, -2, 0.25f});
  const Tensor ya = a.forward(probe);
  const Tensor yb = b.forward(probe);
  ASSERT_EQ(ya.size(), yb.size());
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(NetworkTest, SavedOptimizerStateLoadsWithoutOptimizer) {
  // A caller that only wants the weights may ignore a saved optimizer blob.
  hsd::stats::Rng rng(13);
  Network a = make_mlp(rng);
  Adam opt(1e-2);
  std::stringstream buf;
  a.save(buf, &opt);
  Network b = make_mlp(rng);
  EXPECT_NO_THROW(b.load(buf));
}

TEST(NetworkTest, OptimizerKindMismatchIsRejected) {
  hsd::stats::Rng rng(13);
  Network a = make_mlp(rng);
  Adam adam(1e-2);
  std::stringstream buf;
  a.save(buf, &adam);
  Network b = make_mlp(rng);
  Sgd sgd(1e-2);
  EXPECT_THROW(b.load(buf, &sgd), std::runtime_error);
}

TEST(NetworkTest, LegacyParamsOnlyFileStillLoads) {
  // Backward compatibility: weight files written before the versioned
  // header ("HSD1", parameters only) must keep loading forever.
  hsd::stats::Rng rng(11);
  Network a = make_mlp(rng);
  std::stringstream buf;
  hsd::common::write_pod(buf, std::uint32_t{0x48534431});  // "HSD1"
  const auto ps = a.params();
  hsd::common::write_pod(buf, static_cast<std::uint64_t>(ps.size()));
  for (const auto& p : ps) {
    const auto& shape = p.value->shape();
    hsd::common::write_pod(buf, static_cast<std::uint64_t>(shape.size()));
    for (std::size_t d : shape) {
      hsd::common::write_pod(buf, static_cast<std::uint64_t>(d));
    }
    hsd::common::write_f32_array(buf, p.value->data(), p.value->size());
  }

  Network b = make_mlp(rng);  // different weights until the load
  b.load(buf);
  const Tensor probe = Tensor::randn({3, 4}, rng);
  const Tensor ya = a.forward(probe);
  const Tensor yb = b.forward(probe);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(NetworkTest, DeterministicTrainingUnderSeed) {
  auto run = [](std::uint64_t seed) {
    hsd::stats::Rng rng(seed);
    Network net = make_mlp(rng);
    Tensor x;
    std::vector<int> y;
    make_toy_data(rng, 64, x, y);
    Adam opt(1e-2);
    net.fit(x, y, opt, 5, 16, rng);
    return net.forward(Tensor({1, 4}, std::vector<float>{1, 1, 1, 1}));
  };
  const Tensor a = run(33);
  const Tensor b = run(33);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

}  // namespace
}  // namespace hsd::nn
