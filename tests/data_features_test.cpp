#include "data/features.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "backend_compare.hpp"
#include "data/pattern_generator.hpp"

namespace hsd::data {
namespace {

layout::Clip full_clip() {
  layout::Clip c;
  c.window = layout::Rect{0, 0, 320, 320};
  c.core = layout::centered_core(c.window, 0.5);
  c.shapes.push_back(layout::Rect{0, 0, 320, 320});
  layout::finalize(c);
  return c;
}

layout::Clip empty_clip() {
  layout::Clip c;
  c.window = layout::Rect{0, 0, 320, 320};
  c.core = layout::centered_core(c.window, 0.5);
  return c;
}

TEST(FeatureTest, DimensionIsKeepSquared) {
  const FeatureExtractor fx(32, 8);
  EXPECT_EQ(fx.dimension(), 64u);
  EXPECT_EQ(fx.grid(), 32u);
  EXPECT_EQ(fx.keep(), 8u);
}

TEST(FeatureTest, DcTermEqualsMeanCoverage) {
  const FeatureExtractor fx(32, 8);
  const auto full = fx.extract(full_clip());
  EXPECT_NEAR(full[0], 1.0F, 1e-4F);  // fully covered clip -> mean 1
  const auto empty = fx.extract(empty_clip());
  EXPECT_NEAR(empty[0], 0.0F, 1e-6F);
  // AC terms of a constant image vanish.
  for (std::size_t i = 1; i < full.size(); ++i) EXPECT_NEAR(full[i], 0.0F, 1e-4F);
}

TEST(FeatureTest, DistinctPatternsYieldDistinctFeatures) {
  GeneratorConfig cfg;
  cfg.clip_side = 320;
  cfg.step = 5;
  cfg.min_width = 10;
  cfg.max_width = 40;
  cfg.min_space = 10;
  cfg.max_space = 40;
  PatternGenerator gen(cfg, hsd::stats::Rng(5));
  const FeatureExtractor fx(32, 8);
  const auto a = fx.extract(gen.next_from(Family::kParallelLines));
  const auto b = fx.extract(gen.next_from(Family::kViaArray));
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
  EXPECT_GT(diff, 1e-3);
}

TEST(FeatureTest, IdenticalClipsYieldIdenticalFeatures) {
  const FeatureExtractor fx(32, 8);
  const auto a = fx.extract(full_clip());
  const auto b = fx.extract(full_clip());
  EXPECT_EQ(a, b);
}

std::vector<layout::Clip> generated_clips(std::size_t count) {
  GeneratorConfig cfg;
  cfg.clip_side = 320;
  cfg.step = 5;
  cfg.min_width = 10;
  cfg.max_width = 40;
  cfg.min_space = 10;
  cfg.max_space = 40;
  PatternGenerator gen(cfg, hsd::stats::Rng(9));
  std::vector<layout::Clip> clips;
  for (std::size_t i = 0; i < count; ++i) clips.push_back(gen.next());
  return clips;
}

TEST(FeatureTest, BatchMatchesSingleBitwiseOnScalar) {
  const FeatureExtractor fx(32, 8);
  // The batched DCT reproduces the per-clip accumulation order exactly, so
  // on the bit-exact reference backend the rows must be byte-identical,
  // also past the first rasterization chunk.
  const hsd::testing::BackendGuard guard("scalar");
  for (const std::size_t count : {std::size_t{5}, FeatureExtractor::kRasterChunk + 1}) {
    const auto clips = generated_clips(count);
    const tensor::Tensor batch = fx.extract_batch(clips);
    EXPECT_EQ(batch.shape(), (tensor::Shape{count, 1, 8, 8}));
    for (std::size_t i = 0; i < clips.size(); ++i) {
      const auto single = fx.extract(clips[i]);
      const std::vector<float> row(batch.data() + i * 64,
                                   batch.data() + (i + 1) * 64);
      EXPECT_TRUE(hsd::testing::compare_buffers(
          single, row, hsd::testing::Tolerance{},
          "extract_batch backend=scalar count=" + std::to_string(count) +
              " clip=" + std::to_string(i)));
    }
  }
}

TEST(FeatureTest, BatchMatchesSingleWithinUlpOnFastBackends) {
  const auto clips = generated_clips(5);
  const FeatureExtractor fx(32, 8);
  // On a fast backend, batch and single-clip rows both come from that
  // backend, but through different kernels (stacked gemm_a_bt vs gemm +
  // gemm_a_bt), so agreement is ULP/abs-bounded, not exact (DESIGN.md §15).
  const hsd::testing::Tolerance tol{128, 1e-5F};
  for (const auto* be : hsd::testing::fast_backends()) {
    const hsd::testing::BackendGuard guard(be->name());
    const tensor::Tensor batch = fx.extract_batch(clips);
    for (std::size_t i = 0; i < clips.size(); ++i) {
      const auto single = fx.extract(clips[i]);
      const std::vector<float> row(batch.data() + i * 64,
                                   batch.data() + (i + 1) * 64);
      EXPECT_TRUE(hsd::testing::compare_buffers(
          single, row, tol,
          "extract_batch backend=" + std::string(be->name()) +
              " clip=" + std::to_string(i)));
    }
  }
}

TEST(FeatureTest, EmptyClipVectorYieldsEmptyBatch) {
  const FeatureExtractor fx(32, 8);
  const tensor::Tensor batch = fx.extract_batch({});
  EXPECT_EQ(batch.shape(), (tensor::Shape{0, 1, 8, 8}));
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_TRUE(to_double_rows(batch).empty());
}

TEST(FeatureTest, ToDoubleRowsFlattens) {
  tensor::Tensor x({2, 1, 2, 2}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8});
  const auto rows = to_double_rows(x);
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[0].size(), 4u);
  EXPECT_DOUBLE_EQ(rows[0][0], 1.0);
  EXPECT_DOUBLE_EQ(rows[1][3], 8.0);
}

TEST(FeatureTest, ToDoubleRowsRejectsRaggedStorage) {
  // A constructed tensor always has size == volume, but mutable storage()
  // access can break that invariant; to_double_rows must refuse to
  // silently truncate the trailing partial row.
  tensor::Tensor x({2, 2}, std::vector<float>{1, 2, 3, 4});
  x.storage().push_back(5.0F);
  EXPECT_THROW(to_double_rows(x), std::invalid_argument);
}

TEST(FeatureTest, InvalidKeepThrows) {
  EXPECT_THROW(FeatureExtractor(32, 0), std::invalid_argument);
  EXPECT_THROW(FeatureExtractor(32, 33), std::invalid_argument);
}

}  // namespace
}  // namespace hsd::data
