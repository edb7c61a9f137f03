#pragma once
// 2-D convolution layer implemented as im2col + GEMM.
// Input and output are NCHW tensors.

#include <vector>

#include "nn/layer.hpp"
#include "stats/rng.hpp"

namespace hsd::nn {

class Conv2d : public Layer {
 public:
  /// Whole images lowered per im2col + GEMM in forward(). Bounds the reused
  /// scratch at kChunk images however large the batch; the result does not
  /// depend on it (each output element's accumulation chain is the same at
  /// any GEMM width).
  static constexpr std::size_t kChunk = 16;

  /// Square-kernel convolution with stride and zero padding, He init.
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         hsd::stats::Rng& rng, std::size_t stride = 1, std::size_t pad = 0);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  std::string name() const override { return "Conv2d"; }

  std::size_t in_channels() const { return in_c_; }
  std::size_t out_channels() const { return out_c_; }
  std::size_t kernel() const { return k_; }
  std::size_t stride() const { return stride_; }
  std::size_t pad() const { return pad_; }

  Tensor& weight() { return w_; }
  Tensor& bias() { return b_; }

 private:
  /// Adds the batch's dW and db to the gradients, summed in image order.
  void accumulate_param_grads(const Tensor& grad_output);

  std::size_t in_c_, out_c_, k_, stride_, pad_;
  Tensor w_;       // (out_c, in_c * k * k)
  Tensor b_;       // (out_c)
  Tensor w_grad_;
  Tensor b_grad_;
  hsd::tensor::Shape in_shape_;  // NCHW input shape (training mode only)
  // Training mode only: the forward's im2col lowering of the whole batch,
  // one chunk's (in_c*k*k, images*OH*OW) matrix after another. dW reads
  // each image's column block from it instead of lowering the image again.
  // Its size is bounded by the training batch; an inference-mode forward
  // releases it.
  std::vector<float> lowered_;
  // Scratch for one chunk, reused across calls. forward(): the inference
  // im2col matrix and the GEMM product (out_c, images*OH*OW). backward():
  // W^T * dY in the first and the chunk's gathered dY in the second.
  std::vector<float> columns_;
  std::vector<float> product_;
};

}  // namespace hsd::nn
