#include "core/detector.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "tensor/ops.hpp"

namespace hsd::core {
namespace {

using hsd::tensor::gather_rows;
using hsd::tensor::Tensor;

DetectorConfig small_config() {
  DetectorConfig cfg;
  cfg.input_side = 8;
  cfg.conv1_channels = 4;
  cfg.conv2_channels = 8;
  cfg.hidden = 16;
  cfg.initial_epochs = 20;
  cfg.finetune_epochs = 5;
  cfg.batch_size = 16;
  return cfg;
}

// Synthetic feature tensors: class 1 has energy in the top-left (low-freq)
// corner, class 0 in the bottom-right.
void make_data(hsd::stats::Rng& rng, std::size_t n, Tensor& x, std::vector<int>& y) {
  x = Tensor({n, 1, 8, 8});
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = rng.bernoulli(0.5) ? 1 : 0;
    for (std::size_t r = 0; r < 8; ++r) {
      for (std::size_t c = 0; c < 8; ++c) {
        const bool hot_zone = (y[i] == 1) ? (r < 4 && c < 4) : (r >= 4 && c >= 4);
        x[(i * 8 + r) * 8 + c] =
            static_cast<float>((hot_zone ? 1.0 : 0.0) + rng.normal(0.0, 0.15));
      }
    }
  }
}

TEST(DetectorTest, CnnHasExpectedShapeAndParams) {
  hsd::stats::Rng rng(1);
  nn::Network net = make_hotspot_cnn(small_config(), rng);
  const Tensor logits = net.forward(Tensor({3, 1, 8, 8}));
  EXPECT_EQ(logits.dim(0), 3u);
  EXPECT_EQ(logits.dim(1), 2u);
  EXPECT_GT(net.num_params(), 100u);
}

TEST(DetectorTest, RejectsOddInputSide) {
  DetectorConfig cfg = small_config();
  cfg.input_side = 6;  // not a multiple of 4
  hsd::stats::Rng rng(1);
  EXPECT_THROW(make_hotspot_cnn(cfg, rng), std::invalid_argument);
}

TEST(DetectorTest, LearnsSeparableTask) {
  hsd::stats::Rng rng(3);
  HotspotDetector det(small_config(), rng.split());
  Tensor x;
  std::vector<int> y;
  make_data(rng, 160, x, y);
  det.train_initial(x, y);
  const auto probs = det.probabilities(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    correct += (probs[i][1] >= 0.5 ? 1 : 0) == y[i];
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(y.size()), 0.9);
}

TEST(DetectorTest, FinetuneImprovesOnNewData) {
  hsd::stats::Rng rng(5);
  HotspotDetector det(small_config(), rng.split());
  Tensor x0;
  std::vector<int> y0;
  make_data(rng, 64, x0, y0);
  det.train_initial(x0, y0);
  Tensor x1;
  std::vector<int> y1;
  make_data(rng, 64, x1, y1);
  auto accuracy = [&](const Tensor& x, const std::vector<int>& y) {
    const auto probs = det.probabilities(x);
    std::size_t c = 0;
    for (std::size_t i = 0; i < probs.size(); ++i) {
      c += (probs[i][1] >= 0.5 ? 1 : 0) == y[i];
    }
    return static_cast<double>(c) / static_cast<double>(y.size());
  };
  const double before = accuracy(x1, y1);
  det.finetune(x1, y1);
  const double after = accuracy(x1, y1);
  EXPECT_GE(after, before - 0.05);  // fine-tuning must not wreck the model
  EXPECT_GT(after, 0.85);
}

TEST(DetectorTest, BatchesStraddlingTheConvChunkMatchPerClipBits) {
  // Every row of a batch forward must carry the bits that clip gets when
  // scored alone, whether the batch fits one conv chunk, fills it exactly,
  // or spills into the next — the serving path relies on this, and the
  // conv scratch reused across calls must never leak between them.
  hsd::stats::Rng data_rng(21);
  const std::size_t k = nn::Conv2d::kChunk;
  Tensor x;
  std::vector<int> y;
  make_data(data_rng, 2 * k + 3, x, y);
  HotspotDetector det(small_config(), hsd::stats::Rng(5));

  std::vector<nn::ForwardResult> alone;
  for (std::size_t i = 0; i < x.dim(0); ++i) alone.push_back(det.forward(gather_rows(x, {i})));

  for (const std::size_t n : {k - 1, k, k + 1, 2 * k + 3, std::size_t{1}}) {
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    const nn::ForwardResult batch = det.forward(gather_rows(x, idx));
    ASSERT_EQ(batch.logits.dim(0), n);
    ASSERT_EQ(batch.features.dim(1), small_config().hidden);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::memcmp(batch.logits.data() + 2 * i, alone[i].logits.data(),
                            2 * sizeof(float)),
                0)
          << "batch " << n << " row " << i;
      EXPECT_EQ(std::memcmp(batch.features.data() + i * small_config().hidden,
                            alone[i].features.data(),
                            small_config().hidden * sizeof(float)),
                0)
          << "batch " << n << " row " << i;
    }
  }
}

TEST(DetectorTest, ProbabilitiesRespectTemperature) {
  hsd::stats::Rng rng(9);
  HotspotDetector det(small_config(), rng.split());
  Tensor x;
  std::vector<int> y;
  make_data(rng, 8, x, y);
  const auto sharp = det.probabilities(x, 1.0);
  const auto soft = det.probabilities(x, 10.0);
  for (std::size_t i = 0; i < sharp.size(); ++i) {
    EXPECT_NEAR(soft[i][1], 0.5, std::abs(sharp[i][1] - 0.5) + 1e-9);
  }
}

TEST(DetectorTest, ClassWeightsInverseFrequency) {
  const auto w = HotspotDetector::class_weights({0, 0, 0, 1});
  // n=4, n0=3, n1=1 -> w0 = 4/6, w1 = 4/2.
  EXPECT_NEAR(w[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(w[1], 2.0, 1e-12);
}

TEST(DetectorTest, ClassWeightsDegenerateIsUniform) {
  const auto all_zero = HotspotDetector::class_weights({0, 0});
  EXPECT_DOUBLE_EQ(all_zero[0], 1.0);
  EXPECT_DOUBLE_EQ(all_zero[1], 1.0);
  const auto all_one = HotspotDetector::class_weights({1, 1});
  EXPECT_DOUBLE_EQ(all_one[0], 1.0);
}

TEST(DetectorTest, EmptyForwardIsEmpty) {
  hsd::stats::Rng rng(11);
  HotspotDetector det(small_config(), rng.split());
  const nn::ForwardResult r = det.forward(Tensor({0, 1, 8, 8}));
  EXPECT_TRUE(r.logits.empty());
}

}  // namespace
}  // namespace hsd::core
