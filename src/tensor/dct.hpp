#pragma once
// 2-D type-II discrete cosine transform, the layout feature encoder used by
// DCT-based hotspot detectors (Yang et al., JM3'17 / TCAD'20). The low
// frequency block of the transformed clip raster is the CNN input feature.

#include <cstddef>
#include <vector>

namespace hsd::tensor {

/// Precomputed orthonormal DCT-II basis for a fixed size n, enabling the
/// separable 2-D transform C * X * C^T with two small GEMMs.
class Dct2d {
 public:
  /// Builds the basis for n x n blocks (n >= 1).
  explicit Dct2d(std::size_t n);

  std::size_t size() const { return n_; }

  /// Forward 2-D DCT of a row-major n x n block.
  std::vector<float> forward(const std::vector<float>& block) const;

  /// Inverse 2-D DCT (orthonormal, so inverse = transpose pair).
  std::vector<float> inverse(const std::vector<float>& coeffs) const;

  /// Forward transform keeping only the top-left `keep x keep` low-frequency
  /// coefficients in zig-zag-free row-major order (keep <= n). Both basis
  /// multiplies are truncated to the retained rows, so discarded high
  /// frequencies are never computed.
  std::vector<float> forward_lowfreq(const std::vector<float>& block,
                                     std::size_t keep) const;

  /// Batched truncated forward transform: `count` row-major n x n blocks
  /// stored back-to-back in `blocks`, the keep x keep coefficients of block
  /// i written to `out + i*keep*keep`. The whole population rides two large
  /// stacked GEMMs through the kernel backend dispatch, partitioned across
  /// the pool by clip row ranges. Per element this is the same kernel and
  /// accumulation order as forward_lowfreq, so results are bit-identical to
  /// the per-clip path on every backend (scalar, avx2) at any HSD_THREADS;
  /// cross-backend comparisons stay under the §13/§15 ULP contract.
  void forward_lowfreq_batch(const float* blocks, std::size_t count,
                             std::size_t keep, float* out) const;

  /// forward_lowfreq_batch with the magnitude epilogue `|y| * scale` fused
  /// into the output pass (the feature encoding data::FeatureExtractor
  /// uses, with scale = 1/n so the DC term is mean coverage).
  void forward_lowfreq_batch_abs(const float* blocks, std::size_t count,
                                 std::size_t keep, float scale,
                                 float* out) const;

 private:
  void lowfreq_batch(const float* blocks, std::size_t count, std::size_t keep,
                     bool magnitude, float scale, float* out) const;

  std::size_t n_;
  std::vector<float> basis_;   // row-major n x n, basis_[k*n + i] = C_{k,i}
};

}  // namespace hsd::tensor
