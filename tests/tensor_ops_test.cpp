#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

namespace hsd::tensor {
namespace {

TEST(MatmulTest, KnownProduct) {
  // [[1,2],[3,4]] * [[5,6],[7,8]] = [[19,22],[43,50]]
  Tensor a({2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor b({2, 2}, std::vector<float>{5, 6, 7, 8});
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c.at2(0, 0), 19.0F);
  EXPECT_EQ(c.at2(0, 1), 22.0F);
  EXPECT_EQ(c.at2(1, 0), 43.0F);
  EXPECT_EQ(c.at2(1, 1), 50.0F);
}

TEST(MatmulTest, RectangularShapes) {
  Tensor a({1, 3}, std::vector<float>{1, 2, 3});
  Tensor b({3, 2}, std::vector<float>{1, 0, 0, 1, 1, 1});
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c.dim(0), 1u);
  EXPECT_EQ(c.dim(1), 2u);
  EXPECT_EQ(c.at2(0, 0), 4.0F);
  EXPECT_EQ(c.at2(0, 1), 5.0F);
}

TEST(MatmulTest, ThrowsOnIncompatible) {
  Tensor a({2, 3});
  Tensor b({2, 3});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(MatmulVariantsTest, AtBAndABtAgreeWithExplicitTranspose) {
  // A: 3x2, B: 3x4 -> A^T B is 2x4.
  const std::vector<float> a{1, 2, 3, 4, 5, 6};
  const std::vector<float> b{1, 0, 2, 1, 0, 1, 1, 2, 3, 1, 0, 1};
  std::vector<float> c(2 * 4, -1.0F);
  matmul_at_b(a.data(), b.data(), c.data(), 2, 3, 4);
  // Reference: c[i][j] = sum_p a[p][i] * b[p][j].
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      float ref = 0.0F;
      for (std::size_t p = 0; p < 3; ++p) ref += a[p * 2 + i] * b[p * 4 + j];
      EXPECT_FLOAT_EQ(c[i * 4 + j], ref);
    }
  }
  // A: 2x3, B: 4x3 -> A B^T is 2x4.
  std::vector<float> d(2 * 4, -1.0F);
  matmul_a_bt(a.data(), b.data(), d.data(), 2, 3, 4);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      float ref = 0.0F;
      for (std::size_t p = 0; p < 3; ++p) ref += a[i * 3 + p] * b[j * 3 + p];
      EXPECT_FLOAT_EQ(d[i * 4 + j], ref);
    }
  }
}

TEST(ConvExtentTest, StandardCases) {
  EXPECT_EQ(conv_out_extent(8, 3, 1, 1), 8u);   // same padding
  EXPECT_EQ(conv_out_extent(8, 3, 1, 0), 6u);   // valid
  EXPECT_EQ(conv_out_extent(8, 2, 2, 0), 4u);   // pooling-style
  EXPECT_THROW(conv_out_extent(2, 5, 1, 0), std::invalid_argument);
  EXPECT_THROW(conv_out_extent(8, 3, 0, 0), std::invalid_argument);
}

TEST(Im2colTest, IdentityKernelLayout) {
  // 1 channel, 3x3 image, 2x2 kernel, stride 1, no pad -> 4 columns.
  const std::vector<float> img{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> cols(4 * 4, 0.0F);
  im2col(img.data(), 1, 1, 3, 3, 2, 2, 1, 0, cols.data());
  // Row 0 of the matrix corresponds to kernel offset (0,0): values at the
  // top-left of each patch = [1, 2, 4, 5].
  EXPECT_EQ(cols[0], 1.0F);
  EXPECT_EQ(cols[1], 2.0F);
  EXPECT_EQ(cols[2], 4.0F);
  EXPECT_EQ(cols[3], 5.0F);
  // Row 3 corresponds to offset (1,1): bottom-right of each patch.
  EXPECT_EQ(cols[12], 5.0F);
  EXPECT_EQ(cols[13], 6.0F);
  EXPECT_EQ(cols[14], 8.0F);
  EXPECT_EQ(cols[15], 9.0F);
}

TEST(Im2colTest, ZeroPaddingFillsBorder) {
  const std::vector<float> img{1, 1, 1, 1};
  // 2x2 image, 3x3 kernel, pad 1 -> output 2x2; corner taps hit padding.
  std::vector<float> cols(9 * 4, -1.0F);
  im2col(img.data(), 1, 1, 2, 2, 3, 3, 1, 1, cols.data());
  // Kernel offset (0,0) at output (0,0) reads image position (-1,-1) = 0.
  EXPECT_EQ(cols[0], 0.0F);
  // Kernel offset (1,1) (row 4) at output (0,0) reads (0,0) = 1.
  EXPECT_EQ(cols[4 * 4 + 0], 1.0F);
}

TEST(Im2colTest, BatchLowersImagesSideBySide) {
  // A batch lowers into one wide matrix whose column block b is image b's
  // single-image lowering, so one GEMM convolves the whole batch.
  hsd::stats::Rng rng(11);
  const std::size_t n = 3, c = 2, h = 5, w = 4, k = 3, stride = 2, pad = 1;
  const std::size_t os = conv_out_extent(h, k, stride, pad) *
                         conv_out_extent(w, k, stride, pad);
  const std::size_t patch = c * k * k;
  std::vector<float> x(n * c * h * w);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  std::vector<float> batch(patch * n * os, -1.0F);
  im2col(x.data(), n, c, h, w, k, k, stride, pad, batch.data());
  for (std::size_t b = 0; b < n; ++b) {
    std::vector<float> single(patch * os, -2.0F);
    im2col(x.data() + b * c * h * w, 1, c, h, w, k, k, stride, pad, single.data());
    for (std::size_t r = 0; r < patch; ++r) {
      for (std::size_t s = 0; s < os; ++s) {
        ASSERT_EQ(batch[r * n * os + b * os + s], single[r * os + s])
            << "image " << b << " row " << r << " col " << s;
      }
    }
  }
}

TEST(Col2imTest, IsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y, one image and a
  // batch lowered side by side, at strides 1 and 2.
  hsd::stats::Rng rng(5);
  const std::size_t c = 2, h = 5, w = 4, kh = 3, kw = 2, pad = 1;
  const std::size_t patch = c * kh * kw;
  for (const auto& [n, stride] : {std::pair<std::size_t, std::size_t>{1, 1}, {3, 1}, {3, 2}}) {
    const std::size_t oh = conv_out_extent(h, kh, stride, pad);
    const std::size_t ow = conv_out_extent(w, kw, stride, pad);
    std::vector<float> x(n * c * h * w), y(patch * n * oh * ow);
    for (auto& v : x) v = static_cast<float>(rng.normal());
    for (auto& v : y) v = static_cast<float>(rng.normal());

    std::vector<float> cols(patch * n * oh * ow, 0.0F);
    im2col(x.data(), n, c, h, w, kh, kw, stride, pad, cols.data());
    double lhs = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) lhs += static_cast<double>(cols[i]) * y[i];

    std::vector<float> xg(n * c * h * w, 0.0F);
    col2im(y.data(), n, c, h, w, kh, kw, stride, pad, xg.data());
    double rhs = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) rhs += static_cast<double>(x[i]) * xg[i];

    EXPECT_NEAR(lhs, rhs, 1e-3) << "batch " << n << " stride " << stride;
  }
}

TEST(SoftmaxTest, SumsToOneAndOrders) {
  const auto p = softmax({1.0, 2.0, 3.0});
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
}

TEST(SoftmaxTest, StableForLargeLogits) {
  const auto p = softmax({1000.0, 0.0});
  EXPECT_NEAR(p[0], 1.0, 1e-12);
  EXPECT_NEAR(p[1], 0.0, 1e-12);
}

TEST(SoftmaxTest, TemperatureFlattens) {
  const auto sharp = softmax({2.0, 0.0}, 1.0);
  const auto flat = softmax({2.0, 0.0}, 10.0);
  EXPECT_GT(sharp[0], flat[0]);
  EXPECT_NEAR(flat[0] + flat[1], 1.0, 1e-12);
  // T -> inf approaches uniform.
  const auto very_flat = softmax({2.0, 0.0}, 1e6);
  EXPECT_NEAR(very_flat[0], 0.5, 1e-4);
}

TEST(SoftmaxTest, TemperaturePreservesArgmax) {
  const std::vector<double> logits{0.3, 1.7, -0.5};
  for (double t : {0.1, 0.5, 2.0, 8.0}) {
    EXPECT_EQ(argmax(softmax(logits, t)), 1u);
  }
}

TEST(SoftmaxTest, ThrowsOnBadTemperature) {
  EXPECT_THROW(softmax({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(softmax({1.0}, -1.0), std::invalid_argument);
}

TEST(SoftmaxRowsTest, MatchesScalarSoftmax) {
  Tensor logits({2, 3}, std::vector<float>{1, 2, 3, -1, 0, 1});
  const Tensor p = softmax_rows(logits, 2.0);
  for (std::size_t i = 0; i < 2; ++i) {
    std::vector<double> row(3);
    for (std::size_t j = 0; j < 3; ++j) row[j] = logits.at2(i, j);
    const auto ref = softmax(row, 2.0);
    for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(p.at2(i, j), ref[j], 1e-6);
  }
}

TEST(GatherRowsTest, CopiesSelectedRows) {
  Tensor x({3, 2}, std::vector<float>{0, 1, 10, 11, 20, 21});
  const Tensor g = gather_rows(x, {2, 0});
  EXPECT_EQ(g.dim(0), 2u);
  EXPECT_EQ(g.at2(0, 0), 20.0F);
  EXPECT_EQ(g.at2(1, 1), 1.0F);
}

TEST(GatherRowsTest, WorksOnRank4) {
  Tensor x({2, 1, 2, 2}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8});
  const Tensor g = gather_rows(x, {1});
  EXPECT_EQ(g.dim(0), 1u);
  EXPECT_EQ(g.at4(0, 0, 1, 1), 8.0F);
}

TEST(GatherRowsTest, ThrowsOnOutOfRange) {
  Tensor x({2, 2});
  EXPECT_THROW(gather_rows(x, {2}), std::out_of_range);
}

}  // namespace
}  // namespace hsd::tensor
