#include "snn/layer.h"

#include <vector>

#include "tensor/gemm.h"

namespace falvolt::snn {

void GemmEngine::run_sparse(const int* row_ptr, const int* cols,
                            const float* vals, const float* w, float* c,
                            int m, int k, int n,
                            const std::string& layer_tag) {
  std::vector<float> a(static_cast<std::size_t>(m) * k, 0.0f);
  for (int i = 0; i < m; ++i) {
    float* row = a.data() + static_cast<std::size_t>(i) * k;
    for (int t = row_ptr[i]; t < row_ptr[i + 1]; ++t) row[cols[t]] = vals[t];
  }
  run(a.data(), w, c, m, k, n, layer_tag);
}

void FloatGemmEngine::run(const float* a, const float* w, float* c, int m,
                          int k, int n, const std::string& layer_tag) {
  (void)layer_tag;
  tensor::gemm(a, w, c, m, k, n);
}

FloatGemmEngine& FloatGemmEngine::instance() {
  static FloatGemmEngine engine;
  return engine;
}

}  // namespace falvolt::snn
