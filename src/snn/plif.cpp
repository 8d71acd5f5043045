#include "snn/plif.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace falvolt::snn {

namespace {
float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }
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
}

float Plif::k() const { return sigmoid(w_tau_.value[0]); }

void Plif::set_vth(float v) {
  vth_.value[0] = std::clamp(v, cfg_.vth_min, cfg_.vth_max);
}

void Plif::clamp_vth() { set_vth(vth_.value[0]); }

void Plif::reset_state() {
  v_ = tensor::Tensor();
  carry_ = tensor::Tensor();
  h_hist_.clear();
  s_hist_.clear();
  vprev_hist_.clear();
  last_forward_t_ = -1;
}

tensor::Tensor Plif::forward(const tensor::Tensor& x, int t, Mode mode) {
  if (t != last_forward_t_ + 1) {
    throw std::logic_error("Plif::forward: time steps must be consecutive "
                           "(did you forget reset_state()?)");
  }
  last_forward_t_ = t;
  if (v_.empty()) {
    v_ = tensor::Tensor(x.shape());
  } else if (v_.shape() != x.shape()) {
    throw std::invalid_argument("Plif::forward: input shape changed mid-sequence");
  }

  const float kk = k();
  const float vth = vth_.value[0];
  tensor::Tensor h(x.shape());
  tensor::Tensor s(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float hi = v_[i] + kk * (x[i] - v_[i]);
    h[i] = hi;
    const bool fire = hi > vth;
    s[i] = fire ? 1.0f : 0.0f;
    v_[i] = fire ? 0.0f : hi;  // hard reset
  }
  if (mode == Mode::kTrain) {
    // vprev for step t is the membrane *before* this update; recover it
    // lazily: store h and s, and V_{t-1} = previous stored post-reset V.
    if (static_cast<int>(h_hist_.size()) != t) {
      throw std::logic_error("Plif::forward: cache out of sync");
    }
    vprev_hist_.push_back(t == 0 ? tensor::Tensor(x.shape()) :
        [&] {
          // Reconstruct V_{t-1} from the previous step's cache: it equals
          // H_{t-1} where S_{t-1} == 0, else 0.
          tensor::Tensor vp(x.shape());
          const auto& hp = h_hist_.back();
          const auto& sp = s_hist_.back();
          for (std::size_t i = 0; i < vp.size(); ++i) {
            vp[i] = sp[i] > 0.5f ? 0.0f : hp[i];
          }
          return vp;
        }());
    h_hist_.push_back(std::move(h));
    s_hist_.push_back(s);
  }
  return s;
}

tensor::Tensor Plif::backward(const tensor::Tensor& grad_out, int t) {
  if (t < 0 || t >= static_cast<int>(h_hist_.size())) {
    throw std::logic_error("Plif::backward: no cache for this time step");
  }
  const auto& h = h_hist_[static_cast<std::size_t>(t)];
  const auto& s = s_hist_[static_cast<std::size_t>(t)];
  const auto& vprev = vprev_hist_[static_cast<std::size_t>(t)];
  if (grad_out.shape() != h.shape()) {
    throw std::invalid_argument("Plif::backward: gradient shape mismatch");
  }
  if (carry_.empty()) carry_ = tensor::Tensor(h.shape());

  const float kk = k();
  const float vth = vth_.value[0];
  const float inv_vth = 1.0f / vth;

  tensor::Tensor grad_in(h.shape());
  double dvth = 0.0;
  double dk = 0.0;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const float z = h[i] * inv_vth - 1.0f;
    const float sg = cfg_.surrogate.grad(z);
    // dL/dH_t: spike branch + (detached-reset) membrane branch.
    const float dh =
        grad_out[i] * sg * inv_vth + carry_[i] * (1.0f - s[i]);
    // Threshold-voltage gradient (paper Eq. 4): dz/dV = -H / V^2.
    dvth += static_cast<double>(grad_out[i]) * sg *
            (-h[i] * inv_vth * inv_vth);
    // dH/dk = X_t - V_{t-1} = (H_t - V_{t-1}) / k.
    dk += static_cast<double>(dh) * (h[i] - vprev[i]) / kk;
    grad_in[i] = dh * kk;
    carry_[i] = dh * (1.0f - kk);  // dL/dV_{t-1}
  }
  if (vth_.trainable) {
    vth_.grad[0] += static_cast<float>(dvth);
  }
  if (w_tau_.trainable) {
    w_tau_.grad[0] += static_cast<float>(dk) * kk * (1.0f - kk);
  }
  return grad_in;
}

std::vector<Param*> Plif::params() { return {&vth_, &w_tau_}; }

}  // namespace falvolt::snn
