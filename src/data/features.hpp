#pragma once
// Layout-clip feature extraction: rasterize to a coverage grid, 2-D DCT,
// keep the low-frequency block (the encoding used by the DCT-based hotspot
// detectors the paper builds on). Features are scaled so the DC term equals
// mean coverage, keeping all inputs O(1) for the CNN.

#include <vector>

#include "data/benchmark.hpp"
#include "layout/raster.hpp"
#include "tensor/dct.hpp"
#include "tensor/tensor.hpp"

namespace hsd::data {

/// Extracts `keep x keep` low-frequency DCT features from clips.
class FeatureExtractor {
 public:
  /// Clips rasterized per step of extract_batch(). Bounds its mask buffer
  /// at kRasterChunk grids however large the batch; the features do not
  /// depend on it (the batched DCT computes each row the same way at any
  /// count).
  static constexpr std::size_t kRasterChunk = 256;

  /// `grid`: raster resolution; `keep`: retained low-frequency block side.
  FeatureExtractor(std::size_t grid, std::size_t keep);

  std::size_t grid() const { return raster_.grid(); }
  std::size_t keep() const { return keep_; }
  /// Flat feature dimension (keep * keep).
  std::size_t dimension() const { return keep_ * keep_; }

  /// Feature vector of one clip.
  std::vector<float> extract(const layout::Clip& clip) const;

  /// Feature vector from an already-rasterized `grid x grid` coverage
  /// bitmap. `extract(clip)` is exactly `extract_bitmap(rasterizer()
  /// .rasterize(clip))`; the split lets callers that need the bitmap for
  /// something else (content hashing in the serving feature cache) pay for
  /// rasterization once.
  std::vector<float> extract_bitmap(const std::vector<float>& mask) const;

  /// Batched extract_bitmap: `count` rasterized `grid x grid` bitmaps packed
  /// back-to-back in `masks`, feature row i written to `out + i*dimension()`.
  /// One call runs the whole population through the batched truncated DCT
  /// (Dct2d::forward_lowfreq_batch_abs) — bit-identical per row to
  /// extract_bitmap on every backend at any HSD_THREADS.
  void extract_bitmaps(const float* masks, std::size_t count,
                       float* out) const;

  const layout::Rasterizer& rasterizer() const { return raster_; }

  /// Batch extraction into an NCHW tensor (N, 1, keep, keep) for the CNN.
  /// An empty clip vector yields the well-defined empty tensor
  /// (0, 1, keep, keep).
  tensor::Tensor extract_batch(const std::vector<layout::Clip>& clips) const;

  /// Batch extraction of a whole benchmark.
  tensor::Tensor extract_benchmark(const Benchmark& bench) const {
    return extract_batch(bench.clips);
  }

 private:
  layout::Rasterizer raster_;
  tensor::Dct2d dct_;
  std::size_t keep_;
};

/// Converts a sample-major float tensor into double rows (for the GMM, PCA,
/// and diversity code paths, which work in double precision).
std::vector<std::vector<double>> to_double_rows(const tensor::Tensor& x);

}  // namespace hsd::data
