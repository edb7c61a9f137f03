// Differential gates for the batched truncated DCT
// (Dct2d::forward_lowfreq_batch / _abs), mirroring the backend tolerance
// contract of DESIGN.md §13/§15:
//
//   * per backend: bit-identical to the per-clip forward_lowfreq path on
//     the SAME backend, element by element, at any thread count — the
//     batched path replays the same kernels over the same basis rows
//     (per-element accumulation chains don't depend on the stacked column
//     count), so the guarantee covers avx2 too, not just scalar.
//   * cross-backend (batch on avx2 vs the scalar per-clip reference):
//     ULP/abs-bounded, doubling the single-GEMM gemm_a_bt budget because
//     two reductions chain.
//
// Sweeps keep ∈ {1, g/2, g} × populations {empty, single, odd-N, chunky}
// × HSD_THREADS {1, 4}.

#include "tensor/dct.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend_compare.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/backend/backend.hpp"

namespace hsd::tensor {
namespace {

constexpr std::uint64_t kSeedBase = 321;

// Restores a serial pool after every test so thread pins never leak.
class DctBatchTest : public ::testing::Test {
 protected:
  void TearDown() override { runtime::set_global_threads(1); }
};

std::vector<float> random_blocks(std::size_t count, std::size_t g,
                                 std::uint64_t stream) {
  return hsd::testing::random_buffer(count * g * g, kSeedBase, stream);
}

/// Per-clip reference, always computed on the scalar backend: what the
/// pre-batch FeatureExtractor loop produced.
std::vector<float> perclip_reference(const Dct2d& dct,
                                     const std::vector<float>& blocks,
                                     std::size_t count, std::size_t keep,
                                     bool magnitude, float scale) {
  const hsd::testing::BackendGuard guard("scalar");
  const std::size_t g = dct.size();
  std::vector<float> out(count * keep * keep);
  for (std::size_t c = 0; c < count; ++c) {
    const std::vector<float> block(blocks.begin() + c * g * g,
                                   blocks.begin() + (c + 1) * g * g);
    std::vector<float> f = dct.forward_lowfreq(block, keep);
    for (std::size_t j = 0; j < f.size(); ++j) {
      out[c * keep * keep + j] = magnitude ? std::abs(f[j]) * scale : f[j];
    }
  }
  return out;
}

/// Exact for the bit-exact backends, ULP/abs-bounded for reduced ones.
hsd::testing::Tolerance tolerance_for(std::string_view backend_name,
                                      std::size_t g) {
  if (backend_name == "scalar") return {};
  // Two chained lane-reduced GEMMs: double the single-kernel gemm_a_bt
  // budget (64 ulps / 1e-6·k) from tensor_backend_test.
  return {128, 1e-5F * static_cast<float>(g)};
}

TEST_F(DctBatchTest, MatchesPerClipAcrossBackendsKeepsAndThreads) {
  const std::size_t g = 32;
  const Dct2d dct(g);
  std::uint64_t stream = 0;
  // The always-available exact backend first; fast_backends() adds avx2
  // (ULP gate) when the CPU has it.
  std::vector<std::string> backends{"scalar"};
  for (const auto* be : hsd::testing::fast_backends()) backends.emplace_back(be->name());
  for (const std::string& backend : backends) {
    const hsd::testing::Tolerance tol = tolerance_for(backend, g);
    for (const std::size_t keep : {std::size_t{1}, g / 2, g}) {
      for (const std::size_t count :
           {std::size_t{0}, std::size_t{1}, std::size_t{5}, std::size_t{33}}) {
        const std::vector<float> blocks = random_blocks(count, g, ++stream);
        const std::vector<float> ref =
            perclip_reference(dct, blocks, count, keep, false, 1.0F);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          runtime::set_global_threads(threads);
          const hsd::testing::BackendGuard guard(backend);
          std::vector<float> got(count * keep * keep, -1.0F);
          dct.forward_lowfreq_batch(blocks.data(), count, keep, got.data());
          EXPECT_TRUE(hsd::testing::compare_buffers(
              ref, got, tol,
              hsd::testing::case_context(
                  "forward_lowfreq_batch", backend,
                  "N=" + std::to_string(count) + " g=" + std::to_string(g) +
                      " keep=" + std::to_string(keep) +
                      " threads=" + std::to_string(threads),
                  kSeedBase, stream)));
        }
      }
    }
  }
}

TEST_F(DctBatchTest, BatchIsBitIdenticalToPerClipOnEveryBackend) {
  // Stage 1 of the batch is the same gemm kernel over the same basis rows
  // (each element's accumulation chain is independent of the stacked column
  // count) and stage 2 is literally the per-clip gemm_a_bt on concatenated
  // rows, so batched == per-clip holds bitwise on EVERY backend — the ULP
  // tolerance above is only needed across backends.
  const std::size_t g = 32;
  const std::size_t keep = 8;
  const std::size_t count = 70;  // crosses the 64-clip scratch chunk
  const Dct2d dct(g);
  const std::vector<float> blocks = random_blocks(count, g, 99);
  std::vector<std::string> backends{"scalar"};
  for (const auto* be : hsd::testing::fast_backends()) backends.emplace_back(be->name());
  for (const std::string& backend : backends) {
    const hsd::testing::BackendGuard guard(backend);
    std::vector<float> ref(count * keep * keep);
    for (std::size_t c = 0; c < count; ++c) {
      const std::vector<float> block(blocks.begin() + c * g * g,
                                     blocks.begin() + (c + 1) * g * g);
      const std::vector<float> f = dct.forward_lowfreq(block, keep);
      std::copy(f.begin(), f.end(), ref.begin() + c * keep * keep);
    }
    std::vector<float> got(count * keep * keep);
    dct.forward_lowfreq_batch(blocks.data(), count, keep, got.data());
    EXPECT_TRUE(hsd::testing::compare_buffers(
        ref, got, hsd::testing::Tolerance{},
        "batch-vs-perclip bitwise backend=" + backend));
  }
}

TEST_F(DctBatchTest, ThreadCountNeverChangesBitsPerBackend) {
  const std::size_t g = 32;
  const std::size_t keep = 8;
  // 600 clips spans multiple parallel grains and scratch chunks, so the
  // row-range partition actually varies between thread counts.
  const std::size_t count = 600;
  const Dct2d dct(g);
  const std::vector<float> blocks = random_blocks(count, g, 77);
  std::vector<std::string> backends{"scalar"};
  for (const auto* be : hsd::testing::fast_backends()) backends.emplace_back(be->name());
  for (const std::string& backend : backends) {
    const hsd::testing::BackendGuard guard(backend);
    runtime::set_global_threads(1);
    std::vector<float> t1(count * keep * keep);
    dct.forward_lowfreq_batch(blocks.data(), count, keep, t1.data());
    runtime::set_global_threads(4);
    std::vector<float> t4(count * keep * keep);
    dct.forward_lowfreq_batch(blocks.data(), count, keep, t4.data());
    EXPECT_TRUE(hsd::testing::compare_buffers(
        t1, t4, hsd::testing::Tolerance{},
        "forward_lowfreq_batch t1-vs-t4 backend=" + backend));
  }
}

TEST_F(DctBatchTest, FusedMagnitudeEpilogueMatchesUnfused) {
  const std::size_t g = 16;
  const std::size_t keep = 6;
  const std::size_t count = 9;
  const Dct2d dct(g);
  const std::vector<float> blocks = random_blocks(count, g, 5);
  const float scale = 1.0F / static_cast<float>(g);
  const hsd::testing::BackendGuard guard("scalar");
  std::vector<float> raw(count * keep * keep);
  dct.forward_lowfreq_batch(blocks.data(), count, keep, raw.data());
  for (float& v : raw) v = std::abs(v) * scale;
  std::vector<float> fused(count * keep * keep);
  dct.forward_lowfreq_batch_abs(blocks.data(), count, keep, scale,
                                fused.data());
  EXPECT_TRUE(hsd::testing::compare_buffers(raw, fused,
                                            hsd::testing::Tolerance{},
                                            "fused magnitude epilogue"));
  // And the fused form is exactly the per-clip magnitude feature.
  const std::vector<float> ref =
      perclip_reference(dct, blocks, count, keep, true, scale);
  EXPECT_TRUE(hsd::testing::compare_buffers(
      ref, fused, hsd::testing::Tolerance{}, "fused vs per-clip magnitude"));
}

TEST_F(DctBatchTest, TruncatedPerClipMatchesFullTransformCrop) {
  // forward_lowfreq now truncates both GEMMs; every retained element must
  // still match the full n x n transform bit for bit on the exact backend.
  const std::size_t g = 32;
  const Dct2d dct(g);
  const std::vector<float> block = random_blocks(1, g, 11);
  const hsd::testing::BackendGuard guard("scalar");
  const std::vector<float> full = dct.forward(block);
  for (const std::size_t keep : {std::size_t{1}, g / 2, g}) {
    const std::vector<float> low = dct.forward_lowfreq(block, keep);
    std::vector<float> crop(keep * keep);
    for (std::size_t i = 0; i < keep; ++i) {
      for (std::size_t j = 0; j < keep; ++j) {
        crop[i * keep + j] = full[i * g + j];
      }
    }
    EXPECT_TRUE(hsd::testing::compare_buffers(
        crop, low, hsd::testing::Tolerance{},
        "forward_lowfreq crop backend=scalar keep=" + std::to_string(keep)));
  }
}

TEST_F(DctBatchTest, EdgeCasesAndInvalidArguments) {
  const Dct2d dct(8);
  const std::vector<float> blocks(2 * 8 * 8, 0.5F);
  std::vector<float> out(2 * 4 * 4, -7.0F);
  EXPECT_THROW(dct.forward_lowfreq_batch(blocks.data(), 1, 9, out.data()),
               std::invalid_argument);
  EXPECT_THROW(dct.forward_lowfreq_batch(nullptr, 1, 4, out.data()),
               std::invalid_argument);
  EXPECT_THROW(dct.forward_lowfreq_batch(blocks.data(), 1, 4, nullptr),
               std::invalid_argument);
  // Empty population and keep == 0 are well-defined no-ops: no writes.
  dct.forward_lowfreq_batch(blocks.data(), 0, 4, out.data());
  dct.forward_lowfreq_batch(blocks.data(), 2, 0, out.data());
  for (const float v : out) EXPECT_EQ(v, -7.0F);
}

}  // namespace
}  // namespace hsd::tensor
