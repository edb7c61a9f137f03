// The inference-mode forward contract. Conv2d lowers a chunk of whole
// images to one im2col and one GEMM, and no layer keeps backward state in
// inference mode; neither may move a bit. The reference here is the
// layer-by-layer forward written out from the tensor kernels the way the
// network computed it before chunking: one im2col and one GEMM per image,
// then the bias added in place. Logits and features must match it exactly
// on every backend, at 1 and 4 threads, and at batch sizes that straddle
// Conv2d::kChunk and the network's inference row block (Network::kRowBlock).

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "backend_compare.hpp"
#include "core/detector.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace hsd::nn {
namespace {

using hsd::testing::BackendGuard;
using hsd::testing::compare_buffers;
using hsd::testing::Tolerance;
using hsd::tensor::Tensor;

constexpr std::uint64_t kSeed = 2021;

Tensor reference_conv(Conv2d& conv, const Tensor& x) {
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

Tensor reference_pool(const MaxPool2d& pool, const Tensor& x) {
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t win = pool.window(), st = pool.stride();
  const std::size_t oh = tensor::conv_out_extent(h, win, st, 0);
  const std::size_t ow = tensor::conv_out_extent(w, win, st, 0);
  Tensor out({n, c, oh, ow});
  std::size_t o = 0;
  for (std::size_t plane = 0; plane < n * c; ++plane) {
    const float* src = x.data() + plane * h * w;
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j, ++o) {
        float best = -std::numeric_limits<float>::infinity();
        for (std::size_t ki = 0; ki < win; ++ki) {
          for (std::size_t kj = 0; kj < win; ++kj) {
            const float v = src[(i * st + ki) * w + j * st + kj];
            if (v > best) best = v;
          }
        }
        out[o] = best;
      }
    }
  }
  return out;
}

Tensor reference_dense(Dense& dense, const Tensor& x) {
  const std::size_t n = x.dim(0);
  Tensor out({n, dense.out_features()});
  tensor::matmul_a_bt(x.data(), dense.weight().data(), out.data(), n,
                      dense.in_features(), dense.out_features());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < dense.out_features(); ++j) {
      out[i * dense.out_features() + j] += dense.bias()[j];
    }
  }
  return out;
}

/// The pre-chunking forward over `net`, layer by layer.
ForwardResult reference_forward(Network& net, const Tensor& input) {
  Tensor x = input;
  ForwardResult r;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    Layer& layer = net.layer(i);
    if (i + 1 == net.num_layers()) r.features = x;
    if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
      x = reference_conv(*conv, x);
    } else if (dynamic_cast<Relu*>(&layer) != nullptr) {
      for (float& v : x.storage()) v = v > 0.0F ? v : 0.0F;
    } else if (auto* pool = dynamic_cast<MaxPool2d*>(&layer)) {
      x = reference_pool(*pool, x);
    } else if (dynamic_cast<Flatten*>(&layer) != nullptr) {
      x = x.reshaped({x.dim(0), x.size() / x.dim(0)});
    } else if (auto* dense = dynamic_cast<Dense*>(&layer)) {
      x = reference_dense(*dense, x);
    } else {
      ADD_FAILURE() << "no reference for layer " << layer.name();
    }
  }
  r.logits = x;
  return r;
}

Tensor random_features(std::size_t n, std::size_t side, std::uint64_t stream) {
  return Tensor({n, 1, side, side},
                hsd::testing::random_buffer(n * side * side, kSeed, stream));
}

std::string context(std::string_view backend, std::size_t threads, std::size_t n,
                    const char* what) {
  return std::string(what) + " backend=" + std::string(backend) +
         " threads=" + std::to_string(threads) + " batch=" + std::to_string(n);
}

TEST(InferenceForward, BitIdenticalToPerImageForwardOnEveryBackend) {
  const std::set<std::size_t> sizes = {1,  2,  3,  16, 17, Conv2d::kChunk - 1,
                                       Conv2d::kChunk, Conv2d::kChunk + 1,
                                       Network::kRowBlock - 1, Network::kRowBlock + 1,
                                       4097};
  // Ascending, then descending: every call reuses the conv scratch the
  // previous, differently sized call left behind.
  std::vector<std::size_t> order(sizes.begin(), sizes.end());
  order.insert(order.end(), sizes.rbegin(), sizes.rend());
  std::vector<std::string> backends = {"scalar"};
  for (const auto* be : hsd::testing::fast_backends()) backends.emplace_back(be->name());

  core::DetectorConfig cfg;
  cfg.input_side = 16;
  for (const std::string& backend : backends) {
    const BackendGuard guard(backend);
    core::HotspotDetector det(cfg, stats::Rng(kSeed));
    runtime::set_global_threads(1);
    std::map<std::size_t, ForwardResult> expected;
    for (const std::size_t n : sizes) {
      expected[n] = reference_forward(det.network(), random_features(n, 16, n));
    }
    for (const std::size_t threads : {1u, 4u}) {
      runtime::set_global_threads(threads);
      for (const std::size_t n : order) {
        const ForwardResult got = det.forward(random_features(n, 16, n));
        EXPECT_TRUE(compare_buffers(expected[n].logits.storage(), got.logits.storage(),
                                    Tolerance{}, context(backend, threads, n, "logits")));
        EXPECT_TRUE(compare_buffers(expected[n].features.storage(),
                                    got.features.storage(), Tolerance{},
                                    context(backend, threads, n, "features")));
        EXPECT_EQ(got.features.shape(), (tensor::Shape{n, cfg.hidden}));
      }
    }
  }
  runtime::set_global_threads(1);
}

TEST(InferenceForward, TrainingModeForwardComputesTheSameBits) {
  core::DetectorConfig cfg;
  cfg.input_side = 16;
  core::HotspotDetector det(cfg, stats::Rng(kSeed));
  const Tensor x = random_features(Conv2d::kChunk + 3, 16, 7);
  const ForwardResult eval = det.forward(x);
  det.network().set_training(true);
  const ForwardResult train = det.network().forward_with_features(x);
  EXPECT_TRUE(compare_buffers(eval.logits.storage(), train.logits.storage(),
                              Tolerance{}, "training-mode logits"));
  EXPECT_TRUE(compare_buffers(eval.features.storage(), train.features.storage(),
                              Tolerance{}, "training-mode features"));
}

}  // namespace
}  // namespace hsd::nn
