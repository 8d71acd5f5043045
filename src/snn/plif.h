#pragma once
// Parametric leaky-integrate-and-fire (PLIF) spiking layer (Fang et al.,
// ICCV 2021), the neuron model used by the paper.
//
// Dynamics (hard reset, V_rest = 0, k = sigmoid(w) ~ 1/tau learnable per
// layer):
//     H_t = V_{t-1} + k * (X_t - V_{t-1})        (charge)
//     z_t = H_t / V_th - 1                       (paper Eq. 1, r = v/V)
//     S_t = [z_t > 0]                            (fire)
//     V_t = H_t * (1 - S_t)                      (hard reset)
//
// Backward uses the paper's triangle surrogate (Eq. 2) for dS/dz, and —
// when V_th is marked trainable (FalVolt retraining) — accumulates the
// threshold-voltage gradient dz/dV_th = -H_t / V_th^2 (Eq. 4). The reset
// branch is detached in backward (standard practice; see DESIGN.md).
//
// Both passes run in 8-lane AVX2 code (triangle and rectangle surrogates;
// the sigmoid keeps the scalar loop) that repeats the scalar reference
// loop's operations lane by lane: the same fused multiply-adds, and the
// two double-precision parameter-gradient sums added serially in element
// order. Results are bitwise equal to the reference, which is kept as the
// FALVOLT_FORCE_SCALAR oracle and as the path of builds whose reference
// loops fuse differently (-DFALVOLT_SIMD=OFF, unoptimized builds; see
// simd_lanes()).

#include <vector>

#include "snn/layer.h"
#include "snn/surrogate.h"

namespace falvolt::snn {

/// Configuration of a PLIF layer.
struct PlifConfig {
  float initial_tau = 2.0f;   ///< initial membrane time constant
  float initial_vth = 1.0f;   ///< threshold voltage (the paper's V)
  bool train_tau = true;      ///< learn k = 1/tau (the "P" in PLIF)
  bool train_vth = false;     ///< learn V_th (enabled by FalVolt only)
  Surrogate surrogate;        ///< dS/dz approximation
  float vth_min = 0.05f;      ///< clamp range for learned V_th
  float vth_max = 2.0f;
};

/// Spiking PLIF layer; elementwise over any input shape.
class Plif final : public Layer {
 public:
  Plif(std::string name, const PlifConfig& cfg = {});

  tensor::Tensor forward(const tensor::Tensor& x, int t, Mode mode) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out, int t) override;
  void reset_state() override;
  std::vector<Param*> params() override;
  bool is_spiking() const override { return true; }

  /// Current threshold voltage.
  float vth() const { return vth_.value[0]; }
  /// Overwrite the threshold voltage (clamped to the configured range).
  void set_vth(float v);
  /// Enable/disable V_th learning (FalVolt toggles this for retraining).
  void set_train_vth(bool enabled) { vth_.trainable = enabled; }
  bool train_vth() const { return vth_.trainable; }

  /// Membrane decay factor k = sigmoid(w) in (0, 1).
  float k() const;
  /// Equivalent time constant tau = 1/k.
  float tau() const { return 1.0f / k(); }

  const Surrogate& surrogate() const { return cfg_.surrogate; }
  /// Swap the surrogate used in backward (ablation studies).
  void set_surrogate(const Surrogate& s) { cfg_.surrogate = s; }

  /// Clamp V_th into [vth_min, vth_max]; called by optimizer step hooks.
  void clamp_vth();

  /// Pin both passes to the scalar reference loops instead of the 8-lane
  /// kernels (bit-identical results). Defaults to the
  /// FALVOLT_FORCE_SCALAR environment variable, read at construction.
  void set_force_scalar(bool force) { force_scalar_ = force; }
  bool force_scalar() const { return force_scalar_; }

  /// True when this build runs the 8-lane kernels: AVX2 and FMA are
  /// compiled in, and the build's reference loops fuse the same
  /// multiply-adds (GCC does at -O2 and above, not at -O0/-O1), as checked
  /// once per process on a probe input. Otherwise both passes take the
  /// reference loops.
  static bool simd_lanes();

  /// dL/dV_{t-1} left by the last backward(t) (the membrane gradient the
  /// next backward(t-1) consumes).
  const std::vector<float>& carry() const { return carry_; }

 private:
  PlifConfig cfg_;
  Param vth_;    // scalar [1]
  Param w_tau_;  // scalar [1]; k = sigmoid(w_tau)
  bool force_scalar_ = false;
  tensor::Shape shape_;   // input shape of the running sequence
  std::vector<float> v_;  // membrane potential V_t
  int last_forward_t_ = -1;
  // Training cache: H_t per step, the only per-step state backward needs.
  // S_t = [H_t > V_th] is recomputed, and V_{t-1} is 0 where
  // H_{t-1} > V_th, else H_{t-1} (0 at t = 0). The forward's V_th is
  // recorded in vth_fwd_ and must be unchanged at backward. The buffers
  // are reused across minibatches; an eval forward releases them.
  std::vector<std::vector<float>> h_hist_;
  int steps_ = 0;          // training steps cached in this sequence
  float vth_fwd_ = 0.0f;
  std::vector<float> carry_;  // dL/dV_t flowing from step t+1 in backward
  bool carry_live_ = false;   // carry_ holds this sequence's gradient
};

}  // namespace falvolt::snn
