#include "snn/plif.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/env.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define FALVOLT_PLIF_LANES 1
#endif

namespace falvolt::snn {

namespace {
float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// Charge, fire and hard reset over elements [begin, end): the scalar
// reference forward. `h` (the pre-reset membrane) may be null. Never
// inlined, so the layer and lanes_reproduce_reference() run one compiled
// copy of each reference loop.
[[gnu::noinline]] void forward_reference(const float* x, float* v, float* h, float* s,
                       std::size_t begin, std::size_t end, float kk,
                       float vth) {
  for (std::size_t i = begin; i < end; ++i) {
    const float hi = v[i] + kk * (x[i] - v[i]);
    if (h != nullptr) h[i] = hi;
    const bool fire = hi > vth;
    s[i] = fire ? 1.0f : 0.0f;
    v[i] = fire ? 0.0f : hi;  // hard reset
  }
}

// One backward step's operands. `hp` is H_{t-1} (null at t = 0); the
// double sums run through dvth and dk in element order.
struct BackwardStep {
  const float* grad_out;
  const float* h;
  const float* hp;
  float* carry;
  float* grad_in;
  float kk;
  float vth;
  float inv_vth;
  double dvth = 0.0;
  double dk = 0.0;
};

// The scalar reference backward over elements [begin, end).
[[gnu::noinline]] void backward_reference(const Surrogate& surrogate, BackwardStep& b,
                        std::size_t begin, std::size_t end) {
  const float* grad_out = b.grad_out;
  const float* h = b.h;
  const float* hp = b.hp;
  float* carry = b.carry;
  const float kk = b.kk;
  const float vth = b.vth;
  const float inv_vth = b.inv_vth;
  double dvth = b.dvth;
  double dk = b.dk;
  for (std::size_t i = begin; i < end; ++i) {
    const float s = h[i] > vth ? 1.0f : 0.0f;
    // V_{t-1}: H_{t-1} unless that step fired and reset.
    const float vprev = hp == nullptr ? 0.0f : hp[i] > vth ? 0.0f : hp[i];
    const float z = h[i] * inv_vth - 1.0f;
    const float sg = surrogate.grad(z);
    // dL/dH_t: spike branch + (detached-reset) membrane branch.
    const float dh = grad_out[i] * sg * inv_vth + carry[i] * (1.0f - s);
    // Threshold-voltage gradient (paper Eq. 4): dz/dV = -H / V^2.
    dvth += static_cast<double>(grad_out[i]) * sg *
            (-h[i] * inv_vth * inv_vth);
    // dH/dk = X_t - V_{t-1} = (H_t - V_{t-1}) / k.
    dk += static_cast<double>(dh) * (h[i] - vprev) / kk;
    b.grad_in[i] = dh * kk;
    carry[i] = dh * (1.0f - kk);  // dL/dV_{t-1}
  }
  b.dvth = dvth;
  b.dk = dk;
}

#if defined(FALVOLT_PLIF_LANES)
// The 8-lane kernels repeat the operations GCC -O3 -mfma emits for the
// reference loops, lane by lane:
//   h     = fma(kk, x - v, v)
//   z     = fma(inv_vth, h, -1)
//   dh    = fma(g*sg, inv_vth, (1-s)*carry)
//   dvth  = fma(double(g)*double(sg), double(-h*inv_vth*inv_vth), dvth)
//   dk   += double(h - vprev)*double(dh) / double(kk)
// The two double sums stay serial in element order; everything else is
// elementwise. Intrinsics pin each operation, so the compiler cannot
// contract them differently from the reference.

// Elements [0, n - n % 8) of the forward; returns how many it did.
std::size_t forward_lanes(const float* x, float* v, float* h, float* s,
                          std::size_t n, float kk, float vth) {
  const __m256 kk8 = _mm256_set1_ps(kk);
  const __m256 vth8 = _mm256_set1_ps(vth);
  const __m256 one = _mm256_set1_ps(1.0f);
  const std::size_t n8 = n - n % 8;
  for (std::size_t i = 0; i < n8; i += 8) {
    const __m256 vi = _mm256_loadu_ps(v + i);
    const __m256 hi =
        _mm256_fmadd_ps(kk8, _mm256_sub_ps(_mm256_loadu_ps(x + i), vi), vi);
    if (h != nullptr) _mm256_storeu_ps(h + i, hi);
    const __m256 fire = _mm256_cmp_ps(hi, vth8, _CMP_GT_OQ);
    _mm256_storeu_ps(s + i, _mm256_and_ps(fire, one));
    _mm256_storeu_ps(v + i, _mm256_andnot_ps(fire, hi));
  }
  return n8;
}

// dst[0..7] = double(a) * double(b), lane by lane (exact: a float product
// fits a double).
inline void widen_mul(__m256 a, __m256 b, double* dst) {
  _mm256_store_pd(dst, _mm256_mul_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(a)),
                                     _mm256_cvtps_pd(_mm256_castps256_ps128(b))));
  _mm256_store_pd(dst + 4,
                  _mm256_mul_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(a, 1)),
                                _mm256_cvtps_pd(_mm256_extractf128_ps(b, 1))));
}

inline void widen(__m256 a, double* dst) {
  _mm256_store_pd(dst, _mm256_cvtps_pd(_mm256_castps256_ps128(a)));
  _mm256_store_pd(dst + 4, _mm256_cvtps_pd(_mm256_extractf128_ps(a, 1)));
}

// Elements [0, n - n % 8) of the backward; returns how many it did. The
// V_th-gradient chain runs only when kVth (V_th trained).
template <SurrogateKind K, bool kVth>
std::size_t backward_lanes(float gamma, BackwardStep& b, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 minus_one = _mm256_set1_ps(-1.0f);
  const __m256 gamma8 = _mm256_set1_ps(gamma);
  const __m256 vth8 = _mm256_set1_ps(b.vth);
  const __m256 inv8 = _mm256_set1_ps(b.inv_vth);
  const __m256 kk8 = _mm256_set1_ps(b.kk);
  const __m256 one_minus_kk = _mm256_set1_ps(1.0f - b.kk);
  const __m256d kkd = _mm256_set1_pd(static_cast<double>(b.kk));
  alignas(32) double lhs[8];
  alignas(32) double rhs[8];
  double dvth = b.dvth;
  double dk = b.dk;
  const std::size_t n8 = n - n % 8;
  for (std::size_t i = 0; i < n8; i += 8) {
    const __m256 h = _mm256_loadu_ps(b.h + i);
    const __m256 z = _mm256_fmadd_ps(inv8, h, minus_one);
    const __m256 abs_z = _mm256_andnot_ps(sign, z);
    __m256 sg;
    if constexpr (K == SurrogateKind::kTriangle) {
      const __m256 tri = _mm256_sub_ps(one, abs_z);
      sg = _mm256_and_ps(
          _mm256_cmp_ps(tri, _mm256_setzero_ps(), _CMP_GT_OQ),
          _mm256_mul_ps(gamma8, tri));
    } else {
      sg = _mm256_and_ps(
          _mm256_cmp_ps(abs_z, _mm256_set1_ps(0.5f), _CMP_LT_OQ), gamma8);
    }
    const __m256 g = _mm256_loadu_ps(b.grad_out + i);
    const __m256 s =
        _mm256_and_ps(_mm256_cmp_ps(h, vth8, _CMP_GT_OQ), one);
    const __m256 dh = _mm256_fmadd_ps(
        _mm256_mul_ps(g, sg), inv8,
        _mm256_mul_ps(_mm256_sub_ps(one, s), _mm256_loadu_ps(b.carry + i)));
    _mm256_storeu_ps(b.grad_in + i, _mm256_mul_ps(dh, kk8));
    _mm256_storeu_ps(b.carry + i, _mm256_mul_ps(one_minus_kk, dh));
    if constexpr (kVth) {
      widen_mul(g, sg, lhs);
      widen(_mm256_mul_ps(_mm256_mul_ps(_mm256_xor_ps(h, sign), inv8), inv8),
            rhs);
      for (int j = 0; j < 8; ++j) dvth = std::fma(lhs[j], rhs[j], dvth);
    }
    __m256 vprev = _mm256_setzero_ps();
    if (b.hp != nullptr) {
      const __m256 hp = _mm256_loadu_ps(b.hp + i);
      vprev = _mm256_andnot_ps(_mm256_cmp_ps(hp, vth8, _CMP_GT_OQ), hp);
    }
    widen_mul(_mm256_sub_ps(h, vprev), dh, lhs);
    _mm256_store_pd(lhs, _mm256_div_pd(_mm256_load_pd(lhs), kkd));
    _mm256_store_pd(lhs + 4, _mm256_div_pd(_mm256_load_pd(lhs + 4), kkd));
    for (int j = 0; j < 8; ++j) dk += lhs[j];
  }
  b.dvth = dvth;
  b.dk = dk;
  return n8;
}

template <SurrogateKind K>
std::size_t backward_lanes(float gamma, bool train_vth, BackwardStep& b,
                           std::size_t n) {
  return train_vth ? backward_lanes<K, true>(gamma, b, n)
                   : backward_lanes<K, false>(gamma, b, n);
}

// Whether this build's reference loops fuse exactly the operations the
// lanes fuse. GCC contracts them only with -O2 and above (not -O0/-O1),
// so the answer depends on the build: the lanes and the reference each
// run two forward steps and one backward step on 64 elements where
// fused and unfused arithmetic round differently, and every output is
// compared bitwise. Computed once per process.
bool lanes_reproduce_reference() {
  static const bool same = [] {
    constexpr std::size_t n = 64;
    constexpr float kk = 0.3f;
    constexpr float vth = 1.3f;
    std::vector<float> x(n), g(n), carry(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = 0.37f + 0.0517f * static_cast<float>(i);
      g[i] = 0.61f - 0.0293f * static_cast<float>(i);
      carry[i] = 0.013f * static_cast<float>(i % 7) - 0.041f;
    }
    // [kind][step][element]: membranes, pre-reset membranes and spikes.
    std::vector<float> v[2], h[2][2], s[2][2];
    for (int kind = 0; kind < 2; ++kind) {
      v[kind].assign(n, 0.0f);
      for (int t = 0; t < 2; ++t) {
        h[kind][t].resize(n);
        s[kind][t].resize(n);
        float* out_h = h[kind][t].data();
        float* out_s = s[kind][t].data();
        const std::size_t done =
            kind == 0 ? forward_lanes(x.data(), v[kind].data(), out_h, out_s,
                                      n, kk, vth)
                      : 0;
        forward_reference(x.data(), v[kind].data(), out_h, out_s, done, n,
                          kk, vth);
      }
    }
    std::vector<float> grad_in[2], carry_out[2];
    BackwardStep step[2] = {};
    for (int kind = 0; kind < 2; ++kind) {
      grad_in[kind].resize(n);
      carry_out[kind] = carry;
      step[kind] = BackwardStep{g.data(), h[kind][1].data(),
                                h[kind][0].data(), carry_out[kind].data(),
                                grad_in[kind].data(), kk, vth, 1.0f / vth};
      const std::size_t done =
          kind == 0
              ? backward_lanes<SurrogateKind::kTriangle, true>(1.0f, step[0],
                                                               n)
              : 0;
      backward_reference(Surrogate{}, step[kind], done, n);
    }
    const auto same_bits = [](const std::vector<float>& a,
                              const std::vector<float>& b) {
      return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
    };
    const double sums[2][2] = {{step[0].dvth, step[0].dk},
                               {step[1].dvth, step[1].dk}};
    return same_bits(v[0], v[1]) && same_bits(h[0][0], h[1][0]) &&
           same_bits(h[0][1], h[1][1]) && same_bits(s[0][1], s[1][1]) &&
           same_bits(grad_in[0], grad_in[1]) &&
           same_bits(carry_out[0], carry_out[1]) &&
           std::memcmp(sums[0], sums[1], sizeof(sums[0])) == 0;
  }();
  return same;
}
#endif  // FALVOLT_PLIF_LANES

}  // namespace

Plif::Plif(std::string name, const PlifConfig& cfg)
    : Layer(std::move(name)), cfg_(cfg) {
  if (cfg.initial_tau <= 1.0f) {
    throw std::invalid_argument("Plif: initial_tau must be > 1");
  }
  if (cfg.initial_vth <= 0.0f) {
    throw std::invalid_argument("Plif: initial_vth must be > 0");
  }
  vth_ = Param(Layer::name() + ".vth", tensor::Tensor({1}, cfg.initial_vth));
  vth_.trainable = cfg.train_vth;
  // k = sigmoid(w) = 1/tau  =>  w = logit(1/tau)
  const float k0 = 1.0f / cfg.initial_tau;
  const float w0 = std::log(k0 / (1.0f - k0));
  w_tau_ = Param(Layer::name() + ".w_tau", tensor::Tensor({1}, w0));
  w_tau_.trainable = cfg.train_tau;
  force_scalar_ = common::env_int_or("FALVOLT_FORCE_SCALAR", 0) != 0;
}

bool Plif::simd_lanes() {
#if defined(FALVOLT_PLIF_LANES)
  return lanes_reproduce_reference();
#else
  return false;
#endif
}

float Plif::k() const { return sigmoid(w_tau_.value[0]); }

void Plif::set_vth(float v) {
  vth_.value[0] = std::clamp(v, cfg_.vth_min, cfg_.vth_max);
}

void Plif::clamp_vth() { set_vth(vth_.value[0]); }

void Plif::reset_state() {
  last_forward_t_ = -1;
  steps_ = 0;
  carry_live_ = false;
}

tensor::Tensor Plif::forward(const tensor::Tensor& x, int t, Mode mode) {
  if (t != last_forward_t_ + 1) {
    throw std::logic_error("Plif::forward: time steps must be consecutive "
                           "(did you forget reset_state()?)");
  }
  const std::size_t n = x.size();
  if (t == 0) {
    shape_ = x.shape();
    v_.assign(n, 0.0f);
  } else if (x.shape() != shape_) {
    throw std::invalid_argument("Plif::forward: input shape changed mid-sequence");
  }
  last_forward_t_ = t;

  const float kk = k();
  const float vth = vth_.value[0];
  float* h = nullptr;
  if (mode == Mode::kTrain) {
    if (steps_ != t) {
      throw std::logic_error("Plif::forward: cache out of sync");
    }
    if (t == 0) {
      vth_fwd_ = vth;
    } else if (vth != vth_fwd_) {
      throw std::logic_error("Plif::forward: V_th changed mid-sequence");
    }
    if (h_hist_.size() <= static_cast<std::size_t>(t)) h_hist_.emplace_back();
    auto& ht = h_hist_[static_cast<std::size_t>(t)];
    ht.resize(n);
    h = ht.data();
    ++steps_;
  } else if (!h_hist_.empty()) {
    // An eval pass ends training: release the buffers kept for reuse
    // between minibatches.
    h_hist_ = {};
    carry_ = {};
    steps_ = 0;
    carry_live_ = false;
  }

  tensor::Tensor s(x.shape());
  std::size_t done = 0;
#if defined(FALVOLT_PLIF_LANES)
  if (!force_scalar_ && simd_lanes()) {
    done = forward_lanes(x.data(), v_.data(), h, s.data(), n, kk, vth);
  }
#endif
  forward_reference(x.data(), v_.data(), h, s.data(), done, n, kk, vth);
  return s;
}

tensor::Tensor Plif::backward(const tensor::Tensor& grad_out, int t) {
  if (t < 0 || t >= steps_) {
    throw std::logic_error("Plif::backward: no cache for this time step");
  }
  if (grad_out.shape() != shape_) {
    throw std::invalid_argument("Plif::backward: gradient shape mismatch");
  }
  const float vth = vth_.value[0];
  // S_t and V_{t-1} are recomputed from H with this threshold.
  if (vth != vth_fwd_) {
    throw std::logic_error("Plif::backward: V_th changed since forward");
  }
  const std::size_t n = grad_out.size();
  if (!carry_live_) {
    carry_.assign(n, 0.0f);
    carry_live_ = true;
  }

  const float kk = k();
  tensor::Tensor grad_in(shape_);
  BackwardStep b{grad_out.data(),
                 h_hist_[static_cast<std::size_t>(t)].data(),
                 t > 0 ? h_hist_[static_cast<std::size_t>(t) - 1].data()
                       : nullptr,
                 carry_.data(),
                 grad_in.data(),
                 kk,
                 vth,
                 1.0f / vth};
  std::size_t done = 0;
#if defined(FALVOLT_PLIF_LANES)
  if (!force_scalar_ && simd_lanes()) {
    const Surrogate& sur = cfg_.surrogate;
    // The sigmoid's std::exp has no bit-exact lane form: it keeps the
    // reference loop.
    if (sur.kind == SurrogateKind::kTriangle) {
      done = backward_lanes<SurrogateKind::kTriangle>(sur.gamma,
                                                      vth_.trainable, b, n);
    } else if (sur.kind == SurrogateKind::kRectangle) {
      done = backward_lanes<SurrogateKind::kRectangle>(sur.gamma,
                                                       vth_.trainable, b, n);
    }
  }
#endif
  backward_reference(cfg_.surrogate, b, done, n);
  if (vth_.trainable) {
    vth_.grad[0] += static_cast<float>(b.dvth);
  }
  if (w_tau_.trainable) {
    w_tau_.grad[0] += static_cast<float>(b.dk) * kk * (1.0f - kk);
  }
  return grad_in;
}

std::vector<Param*> Plif::params() { return {&vth_, &w_tau_}; }

}  // namespace falvolt::snn
