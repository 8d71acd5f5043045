#include "tensor/gemm.h"

#include <stdexcept>

#include "compute/gemm_kernels.h"

namespace falvolt::tensor {

// The tensor-level entry points are thin wrappers over the unified
// compute backend. The auto dispatchers pick the naive kernels for small
// or narrow problems and the cache-blocked (optionally pool-parallel)
// ones otherwise. A forward GEMM with k <= 256 and no accumulate goes to
// blocked at any sparsity, because there blocked is bitwise equal to the
// zero-skip naive kernel; outside that case sparse spike inputs
// (sampled density < 0.2) keep the zero-skip kernel. Conv2d, Linear, and
// the trainer's backward pass all route through here.

void gemm(const float* a, const float* b, float* c, int m, int k, int n,
          bool accumulate) {
  compute::gemm_auto(a, b, c, m, k, n, accumulate);
}

void gemm_at_b(const float* a, const float* b, float* c, int k, int m, int n,
               bool accumulate) {
  compute::gemm_at_b_auto(a, b, c, k, m, n, accumulate);
}

void gemm_a_bt(const float* a, const float* b, float* c, int m, int k, int n,
               bool accumulate) {
  compute::gemm_a_bt_auto(a, b, c, m, k, n, accumulate);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("matmul: incompatible shapes " +
                                shape_str(a.shape()) + " x " +
                                shape_str(b.shape()));
  }
  Tensor c({a.dim(0), b.dim(1)});
  gemm(a.data(), b.data(), c.data(), a.dim(0), a.dim(1), b.dim(1));
  return c;
}

}  // namespace falvolt::tensor
