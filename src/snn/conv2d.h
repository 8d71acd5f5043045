#pragma once
// 2D convolution layer (stride 1).
//
// The GEMM weight matrix is [K x M] with K = Cin*kh*kw and M = Cout; this
// is exactly the matrix that gets laid onto the systolic array, so the
// fault/prune machinery addresses conv weights through `MatmulLayer`.
//
// Two executions share those weights:
//
//   * With a GemmEngine plugged in (systolic faulty eval), forward is one
//     engine GEMM [N*OH*OW, K] x [K, Cout] over the im2col matrix, handed
//     over as per-row nonzero lists (GemmEngine::run_sparse). The lists
//     are built by scattering each nonzero input to the output rows whose
//     patch holds it; the dense matrix is never built.
//   * Without one (training and clean float eval), three direct kernels
//     run over zero-padded input planes and never build the im2col
//     matrix. Each reproduces the bits of the lowering through
//     tensor::gemm* (the rules in compute/gemm_kernels.h):
//       - forward: per output element the tap-ascending multiply-add
//         chain from +0 (gemm_blocked with one K panel), then + bias;
//       - weight gradient: gemm_at_b_naive's order, a chain per weight
//         over the rows (sample, oy, ox) ascending that skips zero
//         inputs, walked from per-(sample, channel) nonzero lists. When
//         gemm_at_b_auto would pick its blocked kernel (sampled input
//         density >= 0.2), the im2col matrix is built for that one call
//         and handed to tensor::gemm_at_b unchanged;
//       - input gradient: the G * W^T dots summed per input element in
//         col2im's order (ky, then kx, descending); each dot is
//         gemm_a_bt_blocked's four-partial-sum dot, or, where
//         gemm_a_bt_auto picks the naive kernel (Cout < 8 or a small
//         problem), comes from gemm_a_bt_naive itself.
//     The match is exact for K <= 256 and Cout < 32, which covers every
//     zoo network; outside that range the lowering splits K into panels
//     or lets the compiler vectorize its dot, and the two agree only to
//     float tolerance. The kernels split samples or input channels
//     across the global pool; every slice writes its own outputs, so the
//     bits do not depend on the thread count.

#include <vector>

#include "common/rng.h"
#include "snn/layer.h"
#include "tensor/im2col.h"

namespace falvolt::snn {

/// Convolution over [N, Cin, H, W] inputs producing [N, Cout, OH, OW].
class Conv2d final : public Layer, public MatmulLayer {
 public:
  /// Stride-1 convolution with explicit padding (pad = kernel/2 keeps the
  /// spatial size for odd kernels).
  Conv2d(std::string name, int in_channels, int out_channels, int kernel,
         int pad, common::Rng& init_rng, bool bias = true);

  tensor::Tensor forward(const tensor::Tensor& x, int t, Mode mode) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out, int t) override;
  /// Weight/bias grads only: skips the input gradient.
  void accumulate_param_grads(const tensor::Tensor& grad_out, int t) override;
  void reset_state() override;
  std::vector<Param*> params() override;

  // MatmulLayer
  Param& weight_param() override { return weight_; }
  int gemm_k() const override { return in_channels_ * kernel_ * kernel_; }
  int gemm_m() const override { return out_channels_; }
  void set_gemm_engine(GemmEngine* engine) override { engine_ = engine; }
  const std::string& matmul_name() const override { return Layer::name(); }

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel() const { return kernel_; }

 private:
  void bind_geometry(const tensor::Tensor& x);
  /// Accumulate weight/bias grads for step t, leaving grad_out repacked
  /// pixel-major as G [N*OH*OW, Cout] in g_.
  void param_grads(const tensor::Tensor& grad_out, int t);

  int in_channels_;
  int out_channels_;
  int kernel_;
  int pad_;
  bool has_bias_;
  Param weight_;  // [K x Cout]
  Param bias_;    // [Cout]
  tensor::ConvGeometry geometry_;
  bool geometry_bound_ = false;
  GemmEngine* engine_ = nullptr;  // non-owning; nullptr -> direct kernels
  // Per-time-step inputs, zero-padded: one plane per (sample, channel).
  // The first steps_ are this sequence's; reset_state keeps the buffers
  // (and their zero borders) for the next minibatch, and an eval-mode
  // forward releases them with the backward scratch below.
  std::vector<std::vector<float>> x_hist_;
  int steps_ = 0;
  int batch_ = 0;
  // Backward scratch, reused across calls: G and the padded grad_out.
  std::vector<float> g_;
  std::vector<float> gpad_;
};

}  // namespace falvolt::snn
