#include "snn/conv2d.h"

#include <cmath>
#include <stdexcept>

#include "tensor/gemm.h"

namespace falvolt::snn {

Conv2d::Conv2d(std::string name, int in_channels, int out_channels,
               int kernel, int pad, common::Rng& init_rng, bool bias)
    : Layer(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      pad_(pad),
      has_bias_(bias) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || pad < 0) {
    throw std::invalid_argument("Conv2d: invalid geometry");
  }
  const int k = in_channels * kernel * kernel;
  weight_ = Param(Layer::name() + ".weight",
                  tensor::Tensor({k, out_channels}));
  // Kaiming-uniform on fan-in.
  const float bound = std::sqrt(6.0f / static_cast<float>(k));
  for (auto& w : weight_.value) {
    w = static_cast<float>(init_rng.uniform(-bound, bound));
  }
  bias_ = Param(Layer::name() + ".bias", tensor::Tensor({out_channels}));
  bias_.trainable = has_bias_;
}

void Conv2d::bind_geometry(const tensor::Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2d: expected [N, " +
                                std::to_string(in_channels_) + ", H, W], got " +
                                tensor::shape_str(x.shape()));
  }
  tensor::ConvGeometry g;
  g.in_channels = in_channels_;
  g.in_h = x.dim(2);
  g.in_w = x.dim(3);
  g.kernel_h = kernel_;
  g.kernel_w = kernel_;
  g.stride = 1;
  g.pad = pad_;
  if (geometry_bound_ && (g.in_h != geometry_.in_h || g.in_w != geometry_.in_w)) {
    throw std::invalid_argument("Conv2d: input spatial size changed");
  }
  geometry_ = g;
  geometry_bound_ = true;
}

void Conv2d::reset_state() {
  cols_hist_.clear();
  batch_ = 0;
}

tensor::Tensor Conv2d::forward(const tensor::Tensor& x, int t, Mode mode) {
  bind_geometry(x);
  const int n = x.dim(0);
  const int p = geometry_.out_pixels();
  const int k = geometry_.patch_size();
  const int m = out_channels_;
  batch_ = n;

  // The output outlives this call; the im2col and product buffers do not
  // (outside training). Allocating the output first keeps the transient
  // buffers above it on the heap, where freeing them leaves no hole.
  tensor::Tensor out({n, m, geometry_.out_h(), geometry_.out_w()});
  tensor::Tensor cols({n * p, k});
  const std::size_t in_plane =
      static_cast<std::size_t>(in_channels_) * geometry_.in_h * geometry_.in_w;
  for (int s = 0; s < n; ++s) {
    tensor::im2col(x.data() + static_cast<std::size_t>(s) * in_plane,
                   geometry_,
                   cols.data() + static_cast<std::size_t>(s) * p * k);
  }

  // GEMM: [n*p, k] x [k, m] -> [n*p, m]
  tensor::Tensor prod({n * p, m});
  GemmEngine& eng = engine_ ? *engine_ : FloatGemmEngine::instance();
  eng.run(cols.data(), weight_.value.data(), prod.data(), n * p, k, m,
          Layer::name());

  // Repack pixel-major rows into [N, Cout, OH, OW] and add bias.
  for (int s = 0; s < n; ++s) {
    for (int pix = 0; pix < p; ++pix) {
      const float* row =
          prod.data() + (static_cast<std::size_t>(s) * p + pix) * m;
      for (int c = 0; c < m; ++c) {
        out.data()[((static_cast<std::size_t>(s) * m + c) * p) + pix] =
            row[c] + (has_bias_ ? bias_.value[static_cast<std::size_t>(c)]
                                : 0.0f);
      }
    }
  }

  if (mode == Mode::kTrain) {
    if (static_cast<int>(cols_hist_.size()) != t) {
      throw std::logic_error("Conv2d::forward: cache out of sync");
    }
    cols_hist_.push_back(std::move(cols));
  }
  return out;
}

tensor::Tensor Conv2d::param_grads(const tensor::Tensor& grad_out, int t) {
  if (t < 0 || t >= static_cast<int>(cols_hist_.size())) {
    throw std::logic_error("Conv2d::backward: no cache for this time step");
  }
  const tensor::Tensor& cols = cols_hist_[static_cast<std::size_t>(t)];
  const int n = batch_;
  const int p = geometry_.out_pixels();
  const int k = geometry_.patch_size();
  const int m = out_channels_;
  if (grad_out.rank() != 4 || grad_out.dim(0) != n || grad_out.dim(1) != m) {
    throw std::invalid_argument("Conv2d::backward: gradient shape mismatch");
  }

  // Repack [N, Cout, OH, OW] -> G [n*p, m].
  tensor::Tensor g({n * p, m});
  for (int s = 0; s < n; ++s) {
    for (int c = 0; c < m; ++c) {
      const float* plane =
          grad_out.data() + (static_cast<std::size_t>(s) * m + c) * p;
      for (int pix = 0; pix < p; ++pix) {
        g.data()[(static_cast<std::size_t>(s) * p + pix) * m + c] =
            plane[pix];
      }
    }
  }

  // Weight gradient: W_grad[k x m] += cols^T[k x n*p] * G[n*p x m].
  if (weight_.trainable) {
    tensor::gemm_at_b(cols.data(), g.data(), weight_.grad.data(), n * p, k, m,
                      /*accumulate=*/true);
  }
  if (has_bias_ && bias_.trainable) {
    for (int row = 0; row < n * p; ++row) {
      const float* grow = g.data() + static_cast<std::size_t>(row) * m;
      for (int c = 0; c < m; ++c) {
        bias_.grad[static_cast<std::size_t>(c)] += grow[c];
      }
    }
  }
  return g;
}

void Conv2d::accumulate_param_grads(const tensor::Tensor& grad_out, int t) {
  param_grads(grad_out, t);
}

tensor::Tensor Conv2d::backward(const tensor::Tensor& grad_out, int t) {
  const tensor::Tensor g = param_grads(grad_out, t);
  const int n = batch_;
  const int p = geometry_.out_pixels();
  const int k = geometry_.patch_size();
  const int m = out_channels_;

  // Input gradient: dCols[n*p x k] = G * W^T, then col2im per sample.
  tensor::Tensor dcols({n * p, k});
  tensor::gemm_a_bt(g.data(), weight_.value.data(), dcols.data(), n * p, m,
                    k);
  tensor::Tensor grad_in(
      {n, in_channels_, geometry_.in_h, geometry_.in_w});
  const std::size_t in_plane =
      static_cast<std::size_t>(in_channels_) * geometry_.in_h * geometry_.in_w;
  for (int s = 0; s < n; ++s) {
    tensor::col2im(dcols.data() + static_cast<std::size_t>(s) * p * k,
                   geometry_,
                   grad_in.data() + static_cast<std::size_t>(s) * in_plane);
  }
  return grad_in;
}

std::vector<Param*> Conv2d::params() {
  std::vector<Param*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

}  // namespace falvolt::snn
