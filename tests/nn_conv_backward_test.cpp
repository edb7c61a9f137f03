// The training-shaped convolution backward. Conv2d keeps the forward's
// im2col lowering for dW, lowers dX per chunk of images into one GEMM and
// one batched col2im, and skips dX entirely where nothing reads it (the
// first layer of a network). None of that may move a bit. The reference
// is the per-image backward written out from the tensor kernels: per image
// an im2col, dW_img = dY * columns^T, db_img the spatial sums of dY, summed
// into the gradients in image order; dColumns = W^T * dY and a
// bounds-checked scatter back into the image. dW, db and dX must match it
// exactly on every backend, at 1 and 4 threads, at batch sizes that
// straddle Conv2d::kChunk, and a Network::fit sequence must end with the
// reference's weights.

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "backend_compare.hpp"
#include "nn/activations.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/network.hpp"
#include "nn/pooling.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace hsd::nn {
namespace {

using hsd::testing::BackendGuard;
using hsd::testing::compare_buffers;
using hsd::testing::Tolerance;
using hsd::tensor::Tensor;

constexpr std::uint64_t kSeed = 1807;

/// The per-image convolution forward, bias added to the finished product.
Tensor reference_forward(Conv2d& conv, const Tensor& x) {
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t k = conv.kernel();
  const std::size_t oh = tensor::conv_out_extent(h, k, conv.stride(), conv.pad());
  const std::size_t ow = tensor::conv_out_extent(w, k, conv.stride(), conv.pad());
  const std::size_t oc = conv.out_channels();
  const std::size_t patch = c * k * k;
  Tensor out({n, oc, oh, ow});
  std::vector<float> columns(patch * oh * ow);
  for (std::size_t img = 0; img < n; ++img) {
    tensor::im2col(x.data() + img * c * h * w, 1, c, h, w, k, k, conv.stride(),
                   conv.pad(), columns.data());
    float* dst = out.data() + img * oc * oh * ow;
    tensor::matmul(conv.weight().data(), columns.data(), dst, oc, patch, oh * ow);
    for (std::size_t o = 0; o < oc; ++o) {
      for (std::size_t s = 0; s < oh * ow; ++s) dst[o * oh * ow + s] += conv.bias()[o];
    }
  }
  return out;
}

/// The per-image backward: accumulates dW and db into `conv`'s gradients
/// in image order and returns dX.
Tensor reference_backward(Conv2d& conv, const Tensor& x, const Tensor& grad_output) {
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t k = conv.kernel(), stride = conv.stride(), pad = conv.pad();
  const std::size_t oh = tensor::conv_out_extent(h, k, stride, pad);
  const std::size_t ow = tensor::conv_out_extent(w, k, stride, pad);
  const std::size_t oc = conv.out_channels();
  const std::size_t patch = c * k * k;
  const std::size_t os = oh * ow;
  const std::vector<Param> params = conv.params();
  Tensor& w_grad = *params[0].grad;
  Tensor& b_grad = *params[1].grad;

  Tensor grad_input(x.shape());
  std::vector<float> w_per_img(n * oc * patch);
  std::vector<float> b_per_img(n * oc);
  std::vector<float> columns(patch * os);
  std::vector<float> grad_columns(patch * os);
  for (std::size_t img = 0; img < n; ++img) {
    const float* gout = grad_output.data() + img * oc * os;
    tensor::im2col(x.data() + img * c * h * w, 1, c, h, w, k, k, stride, pad,
                   columns.data());
    tensor::matmul_a_bt(gout, columns.data(), w_per_img.data() + img * oc * patch, oc,
                        os, patch);
    for (std::size_t o = 0; o < oc; ++o) {
      float s = 0.0F;
      for (std::size_t i = 0; i < os; ++i) s += gout[o * os + i];
      b_per_img[img * oc + o] = s;
    }
    tensor::matmul_at_b(conv.weight().data(), gout, grad_columns.data(), patch, oc, os);
    float* gin = grad_input.data() + img * c * h * w;
    for (std::size_t row = 0; row < patch; ++row) {
      const std::size_t ch = row / (k * k), ki = (row / k) % k, kj = row % k;
      for (std::size_t oi = 0; oi < oh; ++oi) {
        const auto ii = static_cast<std::ptrdiff_t>(oi * stride + ki) -
                        static_cast<std::ptrdiff_t>(pad);
        if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(h)) continue;
        for (std::size_t oj = 0; oj < ow; ++oj) {
          const auto jj = static_cast<std::ptrdiff_t>(oj * stride + kj) -
                          static_cast<std::ptrdiff_t>(pad);
          if (jj < 0 || jj >= static_cast<std::ptrdiff_t>(w)) continue;
          gin[(ch * h + static_cast<std::size_t>(ii)) * w + static_cast<std::size_t>(jj)] +=
              grad_columns[row * os + oi * ow + oj];
        }
      }
    }
  }
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t i = 0; i < oc * patch; ++i) w_grad[i] += w_per_img[img * oc * patch + i];
    for (std::size_t o = 0; o < oc; ++o) b_grad[o] += b_per_img[img * oc + o];
  }
  return grad_input;
}

/// A convolution layer that runs the reference algorithms on the weights
/// and gradients of a Conv2d it owns, so a network built with it starts
/// from the same weights as one built with Conv2d from the same RNG.
class ReferenceConv : public Layer {
 public:
  ReferenceConv(std::size_t in_c, std::size_t out_c, std::size_t k, stats::Rng& rng,
                std::size_t stride, std::size_t pad)
      : conv_(in_c, out_c, k, rng, stride, pad) {}

  Tensor forward(const Tensor& input) override {
    input_ = input;
    return reference_forward(conv_, input);
  }
  Tensor backward(const Tensor& grad_output) override {
    return reference_backward(conv_, input_, grad_output);
  }
  std::vector<Param> params() override { return conv_.params(); }
  std::string name() const override { return "ReferenceConv"; }

 private:
  Conv2d conv_;
  Tensor input_;
};

/// The detector's CNN shape (DetectorConfig defaults at a 16x16 input),
/// with convolution layer type `C`.
template <class C>
Network make_cnn(std::uint64_t seed) {
  stats::Rng rng(seed);
  Network net;
  net.add<C>(1, 8, 3, rng, 1, 1);
  net.add<Relu>();
  net.add<MaxPool2d>(2);
  net.add<C>(8, 16, 3, rng, 1, 1);
  net.add<Relu>();
  net.add<MaxPool2d>(2);
  net.add<Flatten>();
  net.add<Dense>(16 * 4 * 4, 32, rng);
  net.add<Relu>();
  net.add<Dense>(32, 2, rng);
  return net;
}

Tensor random_tensor(tensor::Shape shape, std::uint64_t stream) {
  const std::size_t n = tensor::volume(shape);
  return Tensor(std::move(shape), hsd::testing::random_buffer(n, kSeed, stream));
}

std::vector<std::string> every_backend() {
  std::vector<std::string> names = {"scalar"};
  for (const auto* be : hsd::testing::fast_backends()) names.emplace_back(be->name());
  return names;
}

std::string context(std::string_view backend, std::size_t threads, std::size_t n,
                    const std::string& what) {
  return what + " backend=" + std::string(backend) + " threads=" + std::to_string(threads) +
         " batch=" + std::to_string(n);
}

struct ConvCase {
  std::size_t in_c, out_c, side;
};

TEST(ConvBackward, BitIdenticalToPerImageBackwardOnEveryBackend) {
  // conv1 and conv2 of the detector's CNN.
  const ConvCase cases[] = {{1, 8, 16}, {8, 16, 8}};
  const std::size_t sizes[] = {1, 2, 15, 16, 17, 33};
  for (const std::string& backend : every_backend()) {
    const BackendGuard guard(backend);
    for (const ConvCase& cc : cases) {
      for (const std::size_t n : sizes) {
        stats::Rng rng(kSeed + n);
        Conv2d conv(cc.in_c, cc.out_c, 3, rng, 1, 1);
        stats::Rng ref_rng(kSeed + n);
        Conv2d ref(cc.in_c, cc.out_c, 3, ref_rng, 1, 1);
        const Tensor x = random_tensor({n, cc.in_c, cc.side, cc.side}, 10 * n);
        const Tensor gy = random_tensor({n, cc.out_c, cc.side, cc.side}, 10 * n + 1);

        runtime::set_global_threads(1);
        const Tensor expected_y = reference_forward(ref, x);
        const Tensor expected_gx = reference_backward(ref, x, gy);
        for (const std::size_t threads : {1u, 4u}) {
          runtime::set_global_threads(threads);
          const std::string shape = "conv" + std::to_string(cc.in_c) + "x" +
                                    std::to_string(cc.out_c);
          conv.zero_grad();
          const Tensor y = conv.forward(x);
          EXPECT_TRUE(compare_buffers(expected_y.storage(), y.storage(), Tolerance{},
                                      context(backend, threads, n, shape + " y")));
          const Tensor gx = conv.backward(gy);
          EXPECT_TRUE(compare_buffers(expected_gx.storage(), gx.storage(), Tolerance{},
                                      context(backend, threads, n, shape + " dX")));
          EXPECT_TRUE(compare_buffers(ref.params()[0].grad->storage(),
                                      conv.params()[0].grad->storage(), Tolerance{},
                                      context(backend, threads, n, shape + " dW")));
          EXPECT_TRUE(compare_buffers(ref.params()[1].grad->storage(),
                                      conv.params()[1].grad->storage(), Tolerance{},
                                      context(backend, threads, n, shape + " db")));

          // Parameter gradients alone: the same dW and db, no dX.
          conv.zero_grad();
          conv.forward(x);
          conv.backward_params(gy);
          EXPECT_TRUE(compare_buffers(ref.params()[0].grad->storage(),
                                      conv.params()[0].grad->storage(), Tolerance{},
                                      context(backend, threads, n, shape + " params dW")));
          EXPECT_TRUE(compare_buffers(ref.params()[1].grad->storage(),
                                      conv.params()[1].grad->storage(), Tolerance{},
                                      context(backend, threads, n, shape + " params db")));
        }
      }
    }
  }
  runtime::set_global_threads(1);
}

TEST(ConvBackward, FitEndsWithTheReferenceWeights) {
  // 70 samples in batches of 32: two full batches and a partial one per
  // epoch, so the backward runs at 32 (two chunks) and at 6 images.
  const std::size_t n = 70;
  const Tensor x = random_tensor({n, 1, 16, 16}, 7);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = x[i * 256 + 17] > 0.0F ? 1 : 0;
  for (const std::string& backend : every_backend()) {
    const BackendGuard guard(backend);
    for (const std::size_t threads : {1u, 4u}) {
      runtime::set_global_threads(threads);
      Network net = make_cnn<Conv2d>(kSeed);
      Network ref = make_cnn<ReferenceConv>(kSeed);
      Adam opt(1e-3);
      Adam ref_opt(1e-3);
      stats::Rng rng(kSeed);
      stats::Rng ref_rng(kSeed);
      net.fit(x, labels, opt, 3, 32, rng);
      ref.fit(x, labels, ref_opt, 3, 32, ref_rng);
      const std::vector<Param> got = net.params();
      const std::vector<Param> expected = ref.params();
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(compare_buffers(expected[i].value->storage(), got[i].value->storage(),
                                    Tolerance{},
                                    context(backend, threads, n,
                                            "param " + std::to_string(i) + " " +
                                                expected[i].name)));
      }
    }
  }
  runtime::set_global_threads(1);
}

/// Occurrences of the span `name` in the Chrome trace recorded so far.
std::size_t span_count(const std::string& name) {
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string trace = os.str();
  const std::string needle = "\"name\": \"" + name + "\"";
  std::size_t count = 0;
  for (std::size_t at = trace.find(needle); at != std::string::npos;
       at = trace.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(ConvBackward, BackwardLowersNothingAndSkipsTheFirstLayersInputGradient) {
  // One training step over 33 images: three chunks per convolution. The
  // forward lowers each chunk once per convolution; the backward lowers
  // nothing, and only conv2 computes an input gradient, one col2im per
  // chunk.
  const std::size_t n = 33;
  const std::size_t chunks = (n + Conv2d::kChunk - 1) / Conv2d::kChunk;
  Network net = make_cnn<Conv2d>(kSeed);
  Adam opt(1e-3);
  const Tensor x = random_tensor({n, 1, 16, 16}, 3);
  const std::vector<int> labels(n, 1);
  runtime::set_global_threads(1);
  obs::enable_trace();
  obs::reset_trace();
  net.train_batch(x, labels, opt);
  const std::size_t im2col = span_count("tensor/im2col");
  const std::size_t col2im = span_count("tensor/col2im");
  const std::size_t conv_bwd = span_count("nn/conv_bwd");
  obs::disable_trace();
  obs::reset_trace();
  EXPECT_EQ(im2col, 2 * chunks);
  EXPECT_EQ(col2im, chunks);
  EXPECT_EQ(conv_bwd, 2u);
}

}  // namespace
}  // namespace hsd::nn
