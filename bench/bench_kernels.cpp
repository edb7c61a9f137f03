// Kernel microbenchmarks, self-contained warmup+repeat harness (no
// external benchmark framework): the dense primitives behind the
// reproduction, measured per kernel backend.
//
// Three sections, one schema-stable JSON document (stdout + --out file):
//   * "dispatched"   — kernels routed through the src/tensor backend
//     dispatch (GEMM variants, CNN forward, 2-D DCT). Each is measured
//     once per registered backend, with the scalar reference first so
//     every fast backend reports a speedup_vs_scalar.
//   * "dct_batch"    — Dct2d::forward_lowfreq_batch_abs over clip
//     populations N ∈ {64, 1024, 8192} versus the per-clip
//     forward_lowfreq loop, per backend (speedup_vs_perclip is the
//     batching win the serving and AL feature paths see).
//   * "independent"  — hot loops that never touch the dispatcher (aerial
//     image, GMM fit, diversity scan, QP solve, capped-simplex
//     projection, pattern generation), measured once.
//
// Threads are pinned to 1 so the numbers isolate the backend effect from
// the runtime pool (bench_runtime owns the threading story).
//
// Flags:   --seed N (default 1)   --out FILE (default BENCH_kernels.json)
//          --trace FILE  --metrics FILE (shared obs taps)
// Env:     HSD_BENCH_ROUNDS (default 7)   HSD_BENCH_WARMUP (default 2)
//          HSD_BACKEND restricts the dispatched sweep to that backend.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/registry.hpp"
#include "core/detector.hpp"
#include "core/diversity.hpp"
#include "data/pattern_generator.hpp"
#include "gmm/gmm.hpp"
#include "harness.hpp"
#include "litho/optical.hpp"
#include "nn/conv.hpp"
#include "qp/qp.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/dct.hpp"
#include "tensor/ops.hpp"

namespace {

using hsd::harness::TimingEstimate;
using hsd::stats::Rng;
using hsd::tensor::Tensor;

/// One benchmark case. `flops` is the arithmetic cost of a single run
/// (0 when a flop count is not meaningful), used to report GFLOP/s.
struct Case {
  std::string name;
  double flops = 0.0;
  std::function<void()> run;
};

std::vector<std::vector<double>> random_rows(std::size_t n, std::size_t dim,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows(n, std::vector<double>(dim));
  for (auto& r : rows) {
    for (auto& v : r) v = rng.normal();
  }
  return rows;
}

/// Kernels whose inner loops go through tensor::backend dispatch.
std::vector<Case> dispatched_cases(std::uint64_t seed) {
  std::vector<Case> cases;

  for (const std::size_t n : {std::size_t{64}, std::size_t{128}, std::size_t{256}}) {
    Rng rng(seed);
    auto a = std::make_shared<Tensor>(Tensor::randn({n, n}, rng));
    auto b = std::make_shared<Tensor>(Tensor::randn({n, n}, rng));
    auto c = std::make_shared<std::vector<float>>(n * n);
    const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                         static_cast<double>(n);
    cases.push_back({"gemm_" + std::to_string(n), flops, [a, b, c, n] {
                       hsd::tensor::matmul(a->data(), b->data(), c->data(), n,
                                           n, n);
                     }});
  }

  {  // The transposed variants at one representative size.
    const std::size_t n = 128;
    Rng rng(seed + 1);
    auto a = std::make_shared<Tensor>(Tensor::randn({n, n}, rng));
    auto b = std::make_shared<Tensor>(Tensor::randn({n, n}, rng));
    auto c = std::make_shared<std::vector<float>>(n * n);
    const double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                         static_cast<double>(n);
    cases.push_back({"gemm_at_b_128", flops, [a, b, c, n] {
                       hsd::tensor::matmul_at_b(a->data(), b->data(), c->data(),
                                                n, n, n);
                     }});
    cases.push_back({"gemm_a_bt_128", flops, [a, b, c, n] {
                       hsd::tensor::matmul_a_bt(a->data(), b->data(), c->data(),
                                                n, n, n);
                     }});
  }

  {  // Conv forward: batch of 32 single-channel 64x64 images, 8 filters.
    Rng rng(seed + 2);
    auto conv = std::make_shared<hsd::nn::Conv2d>(1, 8, 3, rng, 1, 1);
    auto x = std::make_shared<Tensor>(
        Tensor::rand_uniform({32, 1, 64, 64}, rng, 0.0F, 1.0F));
    cases.push_back({"conv_forward", 0.0, [conv, x] { conv->forward(*x); }});
  }

  {  // Detector CNN forward: batch of 512 DCT feature maps at the 16x16
     // side every served and active-learning detector runs.
    Rng rng(seed + 3);
    hsd::core::DetectorConfig cfg;
    cfg.input_side = 16;
    auto det = std::make_shared<hsd::core::HotspotDetector>(cfg, rng.split());
    auto x = std::make_shared<Tensor>(
        Tensor::rand_uniform({512, 1, cfg.input_side, cfg.input_side}, rng, 0.0F, 1.0F));
    cases.push_back({"cnn_forward_512", 0.0, [det, x] { det->forward(*x); }});
  }

  for (const std::size_t n : {std::size_t{32}, std::size_t{64}}) {
    auto dct = std::make_shared<hsd::tensor::Dct2d>(n);
    Rng rng(seed + 4);
    auto block = std::make_shared<std::vector<float>>(n * n);
    for (auto& v : *block) v = static_cast<float>(rng.uniform());
    cases.push_back({"dct2d_" + std::to_string(n), 0.0,
                     [dct, block] { dct->forward_lowfreq(*block, 8); }});
  }

  return cases;
}

/// Kernels that never reach the backend dispatch; measured once.
std::vector<Case> independent_cases(std::uint64_t seed) {
  std::vector<Case> cases;

  {  // Gaussian aerial-image model on a 64 px grid.
    Rng rng(seed + 10);
    auto mask = std::make_shared<std::vector<float>>(64 * 64);
    for (auto& v : *mask) v = rng.bernoulli(0.4) ? 1.0F : 0.0F;
    cases.push_back({"aerial_image_64", 0.0, [mask] {
                       hsd::litho::aerial_image(*mask, 64,
                                                hsd::litho::duv28_model());
                     }});
  }

  {  // GMM fit: 1000 points, 8-d, 4 components, 20 EM iterations.
    auto rows = std::make_shared<std::vector<std::vector<double>>>(
        random_rows(1000, 8, seed + 11));
    cases.push_back({"gmm_fit_1000", 0.0, [rows, seed] {
                       Rng rng(seed + 12);
                       hsd::gmm::GmmConfig cfg;
                       cfg.components = 4;
                       cfg.max_iters = 20;
                       hsd::gmm::GaussianMixture::fit(*rows, cfg, rng);
                     }});
  }

  {  // Min-distance diversity scan: 512 candidates, 32-d features.
    auto rows = std::make_shared<std::vector<std::vector<double>>>(
        random_rows(512, 32, seed + 13));
    cases.push_back({"diversity_scores_512", 0.0,
                     [rows] { hsd::core::diversity_scores(*rows); }});
  }

  {  // QP batch selection on the same similarity structure.
    const std::size_t n = 128;
    auto rows = std::make_shared<std::vector<std::vector<double>>>(
        random_rows(n, 32, seed + 14));
    auto s = std::make_shared<std::vector<double>>(
        hsd::core::similarity_matrix(*rows));
    cases.push_back({"qp_diversity_128", 0.0, [s, n] {
                       hsd::qp::solve_box_budget_qp(
                           *s, n, {}, static_cast<double>(n / 10));
                     }});
  }

  {  // Capped-simplex projection, 512-d.
    Rng rng(seed + 15);
    auto y = std::make_shared<std::vector<double>>(512);
    for (auto& v : *y) v = rng.normal();
    cases.push_back({"capped_simplex_512", 0.0, [y] {
                       hsd::qp::project_capped_simplex(*y, 64.0);
                     }});
  }

  {  // Synthetic clip generation (geometry + finalize).
    auto gen = std::make_shared<hsd::data::PatternGenerator>(
        hsd::data::GeneratorConfig{}, Rng(seed + 16));
    cases.push_back({"pattern_generation", 0.0, [gen] { gen->next(); }});
  }

  return cases;
}

void emit_estimate(std::ostringstream& os, const TimingEstimate& est) {
  os << "\"min_seconds\": " << est.min_seconds
     << ", \"mean_seconds\": " << est.mean_seconds
     << ", \"ci_lo_seconds\": " << est.ci_lo_seconds
     << ", \"ci_hi_seconds\": " << est.ci_hi_seconds
     << ", \"outlier_rounds\": " << est.outlier_rounds;
}

/// Batched-vs-per-clip truncated DCT sweep (the FeatureExtractor hot path:
/// g=32 rasters, keep=8). Emitted as its own schema section so the CI smoke
/// can gate on speedup_vs_perclip.
void emit_dct_batch_section(std::ostringstream& json,
                            const std::vector<std::string>& backend_names,
                            std::uint64_t seed, std::size_t warmup,
                            std::size_t rounds) {
  const std::size_t g = 32;
  const std::size_t keep = 8;
  const float scale = 1.0F / static_cast<float>(g);
  const hsd::tensor::Dct2d dct(g);
  json << "  \"dct_batch\": [\n";
  const std::vector<std::size_t> sizes{64, 1024, 8192};
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const std::size_t n = sizes[si];
    Rng rng(seed + 20);
    std::vector<std::vector<float>> clip_masks(n, std::vector<float>(g * g));
    std::vector<float> packed(n * g * g);
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& v : clip_masks[i]) v = static_cast<float>(rng.uniform());
      std::copy(clip_masks[i].begin(), clip_masks[i].end(),
                packed.begin() + static_cast<std::ptrdiff_t>(i * g * g));
    }
    std::vector<float> out(n * keep * keep);
    json << "    {\"name\": \"dct_batch_" << n << "\", \"clips\": " << n
         << ", \"grid\": " << g << ", \"keep\": " << keep
         << ", \"backends\": [";
    double scalar_min = 0.0;
    for (std::size_t bi = 0; bi < backend_names.size(); ++bi) {
      hsd::tensor::backend::set_active(backend_names[bi]);
      const TimingEstimate batched = hsd::harness::measure(
          [&] {
            dct.forward_lowfreq_batch_abs(packed.data(), n, keep, scale,
                                          out.data());
          },
          warmup, rounds);
      // Per-clip baseline is the feature path as it stood before batching:
      // a full g x g forward transform per clip, cropped to the keep x keep
      // corner, plus the magnitude epilogue (forward_lowfreq used to compute
      // the full transform too; the truncation shipped with the batch).
      const TimingEstimate perclip = hsd::harness::measure(
          [&] {
            for (std::size_t i = 0; i < n; ++i) {
              const std::vector<float> f = dct.forward(clip_masks[i]);
              for (std::size_t u = 0; u < keep; ++u) {
                for (std::size_t v = 0; v < keep; ++v) {
                  out[i * keep * keep + u * keep + v] =
                      std::abs(f[u * g + v]) * scale;
                }
              }
            }
          },
          warmup, rounds);
      if (backend_names[bi] == "scalar") scalar_min = batched.min_seconds;
      if (bi > 0) json << ", ";
      json << "\n      {\"backend\": \"" << backend_names[bi] << "\", ";
      emit_estimate(json, batched);
      json << ", \"perclip_min_seconds\": " << perclip.min_seconds
           << ", \"perclip_mean_seconds\": " << perclip.mean_seconds;
      if (batched.min_seconds > 0.0) {
        json << ", \"speedup_vs_perclip\": "
             << perclip.min_seconds / batched.min_seconds;
        if (scalar_min > 0.0) {
          json << ", \"speedup_vs_scalar\": "
               << scalar_min / batched.min_seconds;
        }
      }
      json << "}";
    }
    json << "]}" << (si + 1 < sizes.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  hsd::tensor::backend::set_active("auto");
}

}  // namespace

int main(int argc, char** argv) {
  hsd::harness::apply_obs_flags(argc, argv);
  std::uint64_t seed = 1;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  const std::size_t rounds = hsd::harness::bench_rounds();
  const std::size_t warmup = hsd::harness::bench_warmup();
  hsd::runtime::set_global_threads(1);

  // Scalar runs first so every later backend can report a speedup against
  // it. When HSD_BACKEND pins a single backend, only that one is swept
  // (speedups then reference its own scalar-relative entry only if scalar
  // is the pinned backend).
  std::vector<std::string> backend_names;
  if (const char* pinned = std::getenv(hsd::reg::kEnvBackend);
      pinned != nullptr && *pinned != '\0' &&
      std::string_view(pinned) != "auto") {
    backend_names.emplace_back(pinned);
  } else {
    backend_names.emplace_back("scalar");
    for (const auto* be : hsd::tensor::backend::available_backends()) {
      if (be->name() != "scalar") backend_names.emplace_back(be->name());
    }
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"bench_kernels\",\n";
  json << "  \"schema_version\": 3,\n";
  json << "  \"seed\": " << seed << ",\n";
  json << "  \"rounds\": " << rounds << ",\n  \"warmup\": " << warmup << ",\n";
  json << "  \"threads\": 1,\n";
  json << "  \"backends\": [";
  for (std::size_t i = 0; i < backend_names.size(); ++i) {
    json << (i > 0 ? ", " : "") << '"' << backend_names[i] << '"';
  }
  json << "],\n";
  json << "  \"dispatched\": [\n";

  const std::vector<Case> dispatched = dispatched_cases(seed);
  for (std::size_t ci = 0; ci < dispatched.size(); ++ci) {
    const Case& c = dispatched[ci];
    json << "    {\"name\": \"" << c.name << "\", \"backends\": [";
    double scalar_min = 0.0;
    for (std::size_t bi = 0; bi < backend_names.size(); ++bi) {
      hsd::tensor::backend::set_active(backend_names[bi]);
      const TimingEstimate est = hsd::harness::measure(c.run, warmup, rounds);
      if (backend_names[bi] == "scalar") scalar_min = est.min_seconds;
      if (bi > 0) json << ", ";
      json << "\n      {\"backend\": \"" << backend_names[bi] << "\", ";
      emit_estimate(json, est);
      if (c.flops > 0.0 && est.min_seconds > 0.0) {
        json << ", \"gflops\": " << c.flops / est.min_seconds / 1e9;
      }
      if (scalar_min > 0.0 && est.min_seconds > 0.0) {
        json << ", \"speedup_vs_scalar\": " << scalar_min / est.min_seconds;
      }
      json << "}";
    }
    json << "]}" << (ci + 1 < dispatched.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  hsd::tensor::backend::set_active("auto");

  emit_dct_batch_section(json, backend_names, seed, warmup, rounds);

  json << "  \"independent\": [\n";
  const std::vector<Case> independent = independent_cases(seed);
  for (std::size_t ci = 0; ci < independent.size(); ++ci) {
    const Case& c = independent[ci];
    const TimingEstimate est = hsd::harness::measure(c.run, warmup, rounds);
    json << "    {\"name\": \"" << c.name << "\", ";
    emit_estimate(json, est);
    json << "}" << (ci + 1 < independent.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::cout << json.str();
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json.str();
  }
  return 0;
}
