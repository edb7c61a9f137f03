#include "data/features.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace hsd::data {

FeatureExtractor::FeatureExtractor(std::size_t grid, std::size_t keep)
    : raster_(grid), dct_(grid), keep_(keep) {
  if (keep == 0 || keep > grid) throw std::invalid_argument("FeatureExtractor: bad keep");
}

std::vector<float> FeatureExtractor::extract(const layout::Clip& clip) const {
  return extract_bitmap(raster_.rasterize(clip));
}

std::vector<float> FeatureExtractor::extract_bitmap(
    const std::vector<float>& mask) const {
  std::vector<float> coeffs = dct_.forward_lowfreq(mask, keep_);
  // Magnitude spectrum: dropping the coefficient signs makes the encoding
  // quasi-shift-invariant, so two placements of the same structure map to
  // nearby features while marginal widths/pitches (the hotspot drivers)
  // move the frequency content — exactly the separation the GMM density
  // seeding and the diversity metric rely on.
  const auto scale = 1.0F / static_cast<float>(raster_.grid());
  for (auto& c : coeffs) c = std::abs(c) * scale;
  return coeffs;
}

void FeatureExtractor::extract_bitmaps(const float* masks, std::size_t count,
                                       float* out) const {
  dct_.forward_lowfreq_batch_abs(masks, count, keep_,
                                 1.0F / static_cast<float>(raster_.grid()),
                                 out);
}

tensor::Tensor FeatureExtractor::extract_batch(
    const std::vector<layout::Clip>& clips) const {
  HSD_SPAN("data/dct_features");
  // hsd-lint: allow(no-mutable-static) — magic-static metric handle
  static obs::Counter& featurized = obs::counter("data/clips_featurized");
  featurized.add(clips.size());
  tensor::Tensor out({clips.size(), 1, keep_, keep_});
  if (clips.empty()) return out;
  const std::size_t g = raster_.grid();
  const std::size_t row = keep_ * keep_;
  // Rasterize in bounded chunks (rasterization only reads shared tables, so
  // clips fan out across the pool into disjoint mask slots), then push each
  // packed chunk through the batched truncated DCT in one call.
  std::vector<float> masks(std::min(kRasterChunk, clips.size()) * g * g);
  for (std::size_t b0 = 0; b0 < clips.size(); b0 += kRasterChunk) {
    const std::size_t b1 = std::min(clips.size(), b0 + kRasterChunk);
    runtime::parallel_for(b0, b1, 1, [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        const std::vector<float> m = raster_.rasterize(clips[i]);
        std::memcpy(masks.data() + (i - b0) * g * g, m.data(),
                    g * g * sizeof(float));
      }
    });
    extract_bitmaps(masks.data(), b1 - b0, out.data() + b0 * row);
  }
  return out;
}

std::vector<std::vector<double>> to_double_rows(const tensor::Tensor& x) {
  if (x.rank() < 1) throw std::invalid_argument("to_double_rows: rank 0");
  const std::size_t n = x.dim(0);
  if (n == 0) return {};
  if (x.size() % n != 0) {
    throw std::invalid_argument(
        "to_double_rows: element count not divisible by dim(0)");
  }
  const std::size_t row = x.size() / n;
  std::vector<std::vector<double>> rows(n, std::vector<double>(row));
  for (std::size_t i = 0; i < n; ++i) {
    const float* src = x.data() + i * row;
    for (std::size_t j = 0; j < row; ++j) rows[i][j] = static_cast<double>(src[j]);
  }
  return rows;
}

}  // namespace hsd::data
