#pragma once
// im2col lowering for 2D convolution.
//
// A convolution with Cin input channels, KhxKw kernel, stride S and padding
// P over an HxW input becomes a GEMM whose A matrix has one row per output
// pixel and K = Cin*Kh*Kw columns. This is also exactly how the layer's
// weights are laid onto the systolic array: the GEMM's B matrix is
// [K x Cout], and element (k, m) of B maps to PE(k mod N, m mod N).
// snn::Conv2d never materializes this matrix: its float path convolves
// directly, and with a GemmEngine (the systolic faulty-eval model) it
// builds the matrix's per-row nonzero lists from the input. im2col stays
// as the reference lowering both are tested against.

#include "tensor/tensor.h"

namespace falvolt::tensor {

/// Static geometry of a conv lowered to GEMM.
struct ConvGeometry {
  int in_channels = 0;
  int in_h = 0;
  int in_w = 0;
  int kernel_h = 0;
  int kernel_w = 0;
  int stride = 1;
  int pad = 0;

  int out_h() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }
  /// GEMM K dimension.
  int patch_size() const { return in_channels * kernel_h * kernel_w; }
  /// GEMM M dimension per sample.
  int out_pixels() const { return out_h() * out_w(); }
};

/// Expand one sample (C,H,W, rank-3 view of a contiguous buffer) to the
/// im2col matrix [out_pixels x patch_size]. `out` must hold that many
/// floats. Out-of-image taps read as 0 (zero padding).
void im2col(const float* input, const ConvGeometry& g, float* out);

}  // namespace falvolt::tensor
