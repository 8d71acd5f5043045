#include "snn/plif.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>

#include "test_util.h"

namespace falvolt::snn {
namespace {

using falvolt::testutil::analytic_grads;
using falvolt::testutil::numeric_grad;
using falvolt::testutil::random_tensor;

TEST(Plif, FiresWhenMembraneExceedsThreshold) {
  PlifConfig cfg;
  cfg.initial_tau = 2.0f;  // k = 0.5
  cfg.initial_vth = 1.0f;
  Plif p("p", cfg);
  p.reset_state();
  // Step 0: H = 0 + 0.5 * (3 - 0) = 1.5 > 1 -> spike, reset to 0.
  tensor::Tensor x({1, 1}, 3.0f);
  tensor::Tensor s0 = p.forward(x, 0, Mode::kEval);
  EXPECT_EQ(s0[0], 1.0f);
  // Step 1 after reset: H = 0.5 * 3 = 1.5 -> spikes again.
  tensor::Tensor s1 = p.forward(x, 1, Mode::kEval);
  EXPECT_EQ(s1[0], 1.0f);
}

TEST(Plif, SubthresholdInputAccumulates) {
  PlifConfig cfg;
  cfg.initial_tau = 2.0f;
  cfg.initial_vth = 1.0f;
  Plif p("p", cfg);
  p.reset_state();
  tensor::Tensor x({1, 1}, 0.8f);
  // H0 = 0.4 (no spike), H1 = 0.4 + 0.5*(0.8-0.4) = 0.6, H2 = 0.7, ...
  EXPECT_EQ(p.forward(x, 0, Mode::kEval)[0], 0.0f);
  EXPECT_EQ(p.forward(x, 1, Mode::kEval)[0], 0.0f);
  // The membrane converges to x = 0.8 < 1.0, so it never fires.
  for (int t = 2; t < 20; ++t) {
    EXPECT_EQ(p.forward(x, t, Mode::kEval)[0], 0.0f);
  }
}

TEST(Plif, LowerThresholdFiresMore) {
  tensor::Tensor x({1, 1}, 0.8f);
  auto count_spikes = [&](float vth) {
    PlifConfig cfg;
    cfg.initial_vth = vth;
    Plif p("p", cfg);
    p.reset_state();
    int spikes = 0;
    for (int t = 0; t < 20; ++t) {
      spikes += p.forward(x, t, Mode::kEval)[0] == 1.0f ? 1 : 0;
    }
    return spikes;
  };
  EXPECT_GT(count_spikes(0.45f), count_spikes(0.7f));
  EXPECT_EQ(count_spikes(1.2f), 0);
}

TEST(Plif, NonConsecutiveTimeStepThrows) {
  Plif p("p");
  p.reset_state();
  tensor::Tensor x({1, 1}, 0.5f);
  p.forward(x, 0, Mode::kTrain);
  EXPECT_THROW(p.forward(x, 2, Mode::kTrain), std::logic_error);
}

TEST(Plif, ResetStateClearsMembrane) {
  PlifConfig cfg;
  cfg.initial_vth = 1.0f;
  Plif p("p", cfg);
  p.reset_state();
  tensor::Tensor x({1, 1}, 0.9f);
  p.forward(x, 0, Mode::kEval);
  p.reset_state();
  // After reset the same stimulus gives the same (subthreshold) response.
  EXPECT_EQ(p.forward(x, 0, Mode::kEval)[0], 0.0f);
}

TEST(Plif, SetVthClamps) {
  Plif p("p");
  p.set_vth(100.0f);
  EXPECT_FLOAT_EQ(p.vth(), 2.0f);  // default vth_max
  p.set_vth(0.0f);
  EXPECT_FLOAT_EQ(p.vth(), 0.05f);  // default vth_min
}

TEST(Plif, TauMatchesConfig) {
  PlifConfig cfg;
  cfg.initial_tau = 4.0f;
  Plif p("p", cfg);
  EXPECT_NEAR(p.tau(), 4.0f, 1e-4f);
  EXPECT_NEAR(p.k(), 0.25f, 1e-5f);
}

TEST(Plif, InvalidConfigThrows) {
  PlifConfig cfg;
  cfg.initial_tau = 1.0f;
  EXPECT_THROW(Plif("p", cfg), std::invalid_argument);
  cfg.initial_tau = 2.0f;
  cfg.initial_vth = 0.0f;
  EXPECT_THROW(Plif("p", cfg), std::invalid_argument);
}

// ---- Gradient checks (BPTT through 4 steps) ----
//
// The true spike function is piecewise constant, so finite differences of
// the layer output are 0 almost everywhere and O(1/eps) at spike flips —
// they can never validate a *surrogate* gradient. Instead we validate the
// layer against an independent hand-coded reference implementation of the
// surrogate-BPTT recursion (DESIGN.md / paper Eqs. 2-4):
//   dL/dH_t   = y_t * sg(z_t)/V + carry_{t+1} * (1 - S_t)
//   dL/dV    += y_t * sg(z_t) * (-H_t / V^2)
//   dL/dx_t   = dL/dH_t * k
//   dL/dk    += dL/dH_t * (x_t - V_{t-1})
//   carry_t   = dL/dH_t * (1 - k)
struct ReferenceGrads {
  std::vector<tensor::Tensor> input;
  double vth = 0.0;
  double w_tau = 0.0;
};

ReferenceGrads reference_bptt(const std::vector<tensor::Tensor>& xs,
                              const std::vector<tensor::Tensor>& ys,
                              float k, float vth, const Surrogate& sg) {
  const int T = static_cast<int>(xs.size());
  const std::size_t n = xs[0].size();
  // Forward: record H_t, S_t, V_{t-1}.
  std::vector<tensor::Tensor> h(T), s(T), vprev(T);
  tensor::Tensor v(xs[0].shape());
  for (int t = 0; t < T; ++t) {
    h[t] = tensor::Tensor(xs[0].shape());
    s[t] = tensor::Tensor(xs[0].shape());
    vprev[t] = v;
    for (std::size_t i = 0; i < n; ++i) {
      const float hi = v[i] + k * (xs[t][i] - v[i]);
      h[t][i] = hi;
      const bool fire = hi > vth;
      s[t][i] = fire ? 1.0f : 0.0f;
      v[i] = fire ? 0.0f : hi;
    }
  }
  // Backward.
  ReferenceGrads out;
  out.input.assign(static_cast<std::size_t>(T), tensor::Tensor());
  tensor::Tensor carry(xs[0].shape());
  double dk = 0.0;
  for (int t = T - 1; t >= 0; --t) {
    out.input[static_cast<std::size_t>(t)] = tensor::Tensor(xs[0].shape());
    for (std::size_t i = 0; i < n; ++i) {
      const float z = h[t][i] / vth - 1.0f;
      const float g = sg.grad(z);
      const float dh = ys[t][i] * g / vth + carry[i] * (1.0f - s[t][i]);
      out.vth += static_cast<double>(ys[t][i]) * g *
                 (-h[t][i] / (vth * vth));
      dk += static_cast<double>(dh) * (xs[t][i] - vprev[t][i]);
      out.input[static_cast<std::size_t>(t)][i] = dh * k;
      carry[i] = dh * (1.0f - k);
    }
  }
  out.w_tau = dk * k * (1.0 - k);
  return out;
}

std::vector<tensor::Tensor> make_inputs(common::Rng& rng, int t_steps,
                                        tensor::Shape shape) {
  std::vector<tensor::Tensor> xs;
  for (int t = 0; t < t_steps; ++t) {
    xs.push_back(falvolt::testutil::random_tensor(shape, rng, 0.0, 2.0));
  }
  return xs;
}

TEST(PlifGrad, MatchesIndependentReferenceRecursion) {
  common::Rng rng(31);
  PlifConfig cfg;
  cfg.train_vth = true;
  Plif p("p", cfg);
  const int T = 4;
  auto xs = make_inputs(rng, T, {2, 3});
  std::vector<tensor::Tensor> ys;
  for (int t = 0; t < T; ++t) {
    ys.push_back(falvolt::testutil::random_tensor({2, 3}, rng));
  }
  const auto grads = analytic_grads(p, xs, ys);
  const ReferenceGrads ref =
      reference_bptt(xs, ys, p.k(), p.vth(), p.surrogate());
  for (int t = 0; t < T; ++t) {
    for (std::size_t i = 0; i < xs[0].size(); ++i) {
      EXPECT_NEAR(grads[t][i], ref.input[static_cast<std::size_t>(t)][i],
                  1e-5)
          << "t=" << t << " i=" << i;
    }
  }
  EXPECT_NEAR(p.params()[0]->grad[0], ref.vth, 1e-4);    // vth
  EXPECT_NEAR(p.params()[1]->grad[0], ref.w_tau, 1e-4);  // w_tau
}

TEST(PlifGrad, VthGradientSignLowersThresholdWhenMoreSpikesWanted) {
  // If the loss rewards spiking (positive cotangent on S) and the neuron
  // is near threshold, dL/dV must be negative: lowering V_th raises S.
  PlifConfig cfg;
  cfg.train_vth = true;
  Plif p("p", cfg);
  p.reset_state();
  std::vector<tensor::Tensor> xs{tensor::Tensor({1, 1}, 1.9f)};  // H ~ 0.95
  std::vector<tensor::Tensor> ys{tensor::Tensor({1, 1}, -1.0f)};
  // Loss = -S (we *want* spikes); dL/dV = -sg * (-H/V^2) * ... sign check:
  analytic_grads(p, xs, ys);
  EXPECT_GT(p.params()[0]->grad[0], 0.0f);
  // Gradient descent then *decreases* V? No: grad > 0 means descent
  // lowers V_th, which increases spiking and decreases the loss. Verify
  // by stepping manually.
  const float before = p.vth();
  p.set_vth(before - 0.2f);
  p.reset_state();
  const tensor::Tensor s = p.forward(xs[0], 0, Mode::kEval);
  EXPECT_EQ(s[0], 1.0f);  // now fires
}

TEST(PlifGrad, TauGradientNonzeroWhenTrained) {
  common::Rng rng(35);
  Plif p("p");
  const int T = 3;
  auto xs = make_inputs(rng, T, {4, 4});
  std::vector<tensor::Tensor> ys;
  for (int t = 0; t < T; ++t) {
    ys.push_back(falvolt::testutil::random_tensor({4, 4}, rng));
  }
  analytic_grads(p, xs, ys);
  // params()[1] is w_tau.
  EXPECT_NE(p.params()[1]->grad[0], 0.0f);
}

TEST(PlifGrad, VthGradientZeroWhenFrozen) {
  common::Rng rng(37);
  PlifConfig cfg;
  cfg.train_vth = false;  // FaPIT mode
  Plif p("p", cfg);
  const int T = 3;
  auto xs = make_inputs(rng, T, {4, 4});
  std::vector<tensor::Tensor> ys;
  for (int t = 0; t < T; ++t) {
    ys.push_back(falvolt::testutil::random_tensor({4, 4}, rng));
  }
  analytic_grads(p, xs, ys);
  EXPECT_EQ(p.params()[0]->grad[0], 0.0f);
}

TEST(PlifGrad, BackwardWithoutCacheThrows) {
  Plif p("p");
  p.reset_state();
  tensor::Tensor g({1, 1});
  EXPECT_THROW(p.backward(g, 0), std::logic_error);
}

// ---- 8-lane kernels vs the scalar reference (bitwise) ----
//
// The lanes must repeat the reference loop's fused operations exactly;
// at V_th = 1 fused and unfused products agree, so the thresholds below
// are non-unit too, with V_th both trained and frozen.

struct SequenceResult {
  std::vector<tensor::Tensor> spikes;
  std::vector<tensor::Tensor> grad_in;
  std::vector<float> carry;
  float vth_grad = 0.0f;
  float tau_grad = 0.0f;
};

SequenceResult run_sequence(Plif& p, const std::vector<tensor::Tensor>& xs,
                            const std::vector<tensor::Tensor>& gs) {
  for (Param* param : p.params()) param->zero_grad();
  p.reset_state();
  SequenceResult r;
  for (std::size_t t = 0; t < xs.size(); ++t) {
    r.spikes.push_back(p.forward(xs[t], static_cast<int>(t), Mode::kTrain));
  }
  r.grad_in.resize(xs.size());
  for (int t = static_cast<int>(xs.size()) - 1; t >= 0; --t) {
    r.grad_in[static_cast<std::size_t>(t)] =
        p.backward(gs[static_cast<std::size_t>(t)], t);
  }
  r.carry = p.carry();
  r.vth_grad = p.params()[0]->grad[0];
  r.tau_grad = p.params()[1]->grad[0];
  return r;
}

bool same_bits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void expect_same_bits(const SequenceResult& lanes, const SequenceResult& ref,
                      const std::string& what) {
  ASSERT_EQ(lanes.spikes.size(), ref.spikes.size()) << what;
  for (std::size_t t = 0; t < ref.spikes.size(); ++t) {
    EXPECT_TRUE(same_bits(lanes.spikes[t], ref.spikes[t]))
        << what << " spikes t=" << t;
    EXPECT_TRUE(same_bits(lanes.grad_in[t], ref.grad_in[t]))
        << what << " grad_in t=" << t;
  }
  ASSERT_EQ(lanes.carry.size(), ref.carry.size()) << what;
  EXPECT_EQ(std::memcmp(lanes.carry.data(), ref.carry.data(),
                        ref.carry.size() * sizeof(float)),
            0)
      << what << " carry";
  EXPECT_EQ(std::memcmp(&lanes.vth_grad, &ref.vth_grad, sizeof(float)), 0)
      << what << " vth.grad " << lanes.vth_grad << " vs " << ref.vth_grad;
  EXPECT_EQ(std::memcmp(&lanes.tau_grad, &ref.tau_grad, sizeof(float)), 0)
      << what << " w_tau.grad " << lanes.tau_grad << " vs " << ref.tau_grad;
}

// Random membranes plus hand-placed edges. With tau = 2 (k = 0.5 exactly)
// x = 2 V_th charges an empty membrane to H == V_th exactly (no spike),
// fires on the next step and resets, so H == V_th recurs; x = 0 on an
// empty membrane gives z = -1, the triangle's foot. Gradients include
// +0.0 and -0.0.
void make_sequence(common::Rng& rng, tensor::Shape shape, int steps,
                   float vth, std::vector<tensor::Tensor>& xs,
                   std::vector<tensor::Tensor>& gs) {
  xs.clear();
  gs.clear();
  for (int t = 0; t < steps; ++t) {
    tensor::Tensor x = falvolt::testutil::random_tensor(shape, rng, -0.5, 2.5);
    tensor::Tensor g = falvolt::testutil::random_tensor(shape, rng);
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (i % 5 == 1) x[i] = 2.0f * vth;
      if (i % 23 == 4) x[i] = 0.0f;
      if (i % 7 == 3) g[i] = -0.0f;
      if (i % 11 == 6) g[i] = 0.0f;
    }
    xs.push_back(std::move(x));
    gs.push_back(std::move(g));
  }
}

// Two layers with one configuration: the 8-lane kernels and the scalar
// reference (set explicitly, whatever FALVOLT_FORCE_SCALAR says).
struct LanesAndReference {
  explicit LanesAndReference(const PlifConfig& cfg)
      : lanes("p", cfg), ref("p", cfg) {
    lanes.set_force_scalar(false);
    ref.set_force_scalar(true);
  }
  Plif lanes;
  Plif ref;
};

TEST(PlifLanes, ActiveInOptimizedGccBuilds) {
  // Guards the bitwise tests below against comparing the reference with
  // itself: GCC with -O2/-O3/-Os fuses the reference loops as the lanes
  // do, so an optimized AVX2+FMA build must run the lanes.
#if defined(__AVX2__) && defined(__FMA__) && defined(__GNUC__) && \
    !defined(__clang__) && defined(NDEBUG)
  EXPECT_TRUE(Plif::simd_lanes());
#else
  GTEST_SKIP() << "lanes " << (Plif::simd_lanes() ? "on" : "off")
               << " in this build";
#endif
}

TEST(PlifLanes, BitwiseEqualToScalarReference) {
  common::Rng rng(41);
  for (const SurrogateKind kind :
       {SurrogateKind::kTriangle, SurrogateKind::kRectangle,
        SurrogateKind::kSigmoid}) {
    for (const float gamma : {1.0f, 1.7f}) {
      // tau = 3 makes k inexact, so dividing by k differs from
      // multiplying by 1/k.
      for (const float tau : {2.0f, 3.0f}) {
      for (const float vth : {0.8f, 1.0f, 1.3f}) {
        for (const bool train_vth : {true, false}) {
          for (const int steps : {1, 4}) {
            // 3 * 37 = 111 elements: 13 lane groups and a 7-element tail.
            for (const tensor::Shape& shape :
                 {tensor::Shape{3, 37}, tensor::Shape{2, 4, 6, 6}}) {
              PlifConfig cfg;
              cfg.initial_tau = tau;
              cfg.initial_vth = vth;
              cfg.train_vth = train_vth;
              cfg.surrogate = Surrogate{kind, gamma};
              LanesAndReference p(cfg);
              std::vector<tensor::Tensor> xs, gs;
              make_sequence(rng, shape, steps, vth, xs, gs);
              const std::string what =
                  cfg.surrogate.to_string() + " tau=" + std::to_string(tau) +
                  " vth=" + std::to_string(vth) +
                  (train_vth ? " trained" : " frozen") +
                  " T=" + std::to_string(steps) + " n=" +
                  std::to_string(xs[0].size());
              const SequenceResult a = run_sequence(p.lanes, xs, gs);
              const SequenceResult b = run_sequence(p.ref, xs, gs);
              expect_same_bits(a, b, what);
              if (!train_vth) {
                EXPECT_EQ(a.vth_grad, 0.0f) << what;
              }
            }
          }
        }
      }
      }
    }
  }
}

TEST(PlifLanes, ExactThresholdCrossingsAndResets) {
  // Every element sits on H == V_th at t = 0, 2, 4 and fires at t = 1, 3.
  for (const float vth : {0.8f, 1.3f}) {
    PlifConfig cfg;
    cfg.initial_vth = vth;
    cfg.train_vth = true;
    LanesAndReference p(cfg);
    std::vector<tensor::Tensor> xs(5, tensor::Tensor({1, 19}, 2.0f * vth));
    std::vector<tensor::Tensor> gs(5, tensor::Tensor({1, 19}, 0.25f));
    const SequenceResult a = run_sequence(p.lanes, xs, gs);
    const SequenceResult b = run_sequence(p.ref, xs, gs);
    for (int t = 0; t < 5; ++t) {
      EXPECT_EQ(b.spikes[static_cast<std::size_t>(t)][0],
                t % 2 == 1 ? 1.0f : 0.0f);
    }
    expect_same_bits(a, b, "vth=" + std::to_string(vth));
  }
}

TEST(PlifLanes, CancellingSumsKeepElementOrder) {
  // Gradients +B, -B, 1/2 repeat along 24 elements (three lane groups),
  // so the parameter-gradient terms run A, -A, c, A, -A, c, ...: added in
  // element order they end at the last c, while any other order (lane-wise
  // or reversed) absorbs or cancels it differently.
  for (const bool train_vth : {true, false}) {
    PlifConfig cfg;
    cfg.initial_tau = 3.0f;
    cfg.initial_vth = 1.3f;
    cfg.train_vth = train_vth;
    LanesAndReference p(cfg);
    std::vector<tensor::Tensor> xs(2, tensor::Tensor({1, 24}, 1.2f * 1.3f));
    std::vector<tensor::Tensor> gs(2, tensor::Tensor({1, 24}));
    for (auto& g : gs) {
      for (std::size_t i = 0; i < g.size(); ++i) {
        g[i] = i % 3 == 0 ? 1e30f : i % 3 == 1 ? -1e30f : 0.5f;
      }
    }
    const SequenceResult a = run_sequence(p.lanes, xs, gs);
    const SequenceResult b = run_sequence(p.ref, xs, gs);
    EXPECT_NE(b.tau_grad, 0.0f);
    if (train_vth) {
      EXPECT_NE(b.vth_grad, 0.0f);
    }
    expect_same_bits(a, b, train_vth ? "trained" : "frozen");
  }
}

TEST(PlifLanes, BuffersReusedAcrossShrinkingBatchesAndEvalPasses) {
  common::Rng rng(43);
  PlifConfig cfg;
  cfg.initial_vth = 1.3f;
  cfg.train_vth = true;
  LanesAndReference p(cfg);
  const tensor::Shape shapes[] = {{6, 37}, {4, 37}, {4, 37}, {5, 29}, {9, 37}};
  for (std::size_t k = 0; k < std::size(shapes); ++k) {
    std::vector<tensor::Tensor> xs, gs;
    make_sequence(rng, shapes[k], 4 - static_cast<int>(k % 2), 1.3f, xs, gs);
    // A fresh layer per sequence is the reference for the reused ones.
    Plif fresh("p", cfg);
    fresh.set_force_scalar(true);
    const SequenceResult want = run_sequence(fresh, xs, gs);
    const std::string what = "sequence " + std::to_string(k);
    expect_same_bits(run_sequence(p.lanes, xs, gs), want, what + " lanes");
    expect_same_bits(run_sequence(p.ref, xs, gs), want, what + " reference");
    if (k == 2) {
      // An eval pass between two training sequences releases the cache.
      p.lanes.reset_state();
      p.ref.reset_state();
      for (int t = 0; t < 3; ++t) {
        const tensor::Tensor& x = xs[static_cast<std::size_t>(t)];
        EXPECT_TRUE(same_bits(p.lanes.forward(x, t, Mode::kEval),
                              p.ref.forward(x, t, Mode::kEval)))
            << "eval t=" << t;
      }
    }
  }
}

TEST(PlifLanes, EvalForwardMatchesTrainingForward) {
  common::Rng rng(47);
  PlifConfig cfg;
  cfg.initial_vth = 0.8f;
  LanesAndReference p(cfg);
  std::vector<tensor::Tensor> xs, gs;
  make_sequence(rng, {5, 21}, 4, 0.8f, xs, gs);
  const SequenceResult trained = run_sequence(p.ref, xs, gs);
  for (Plif* layer : {&p.lanes, &p.ref}) {
    layer->reset_state();
    for (int t = 0; t < 4; ++t) {
      const auto st = static_cast<std::size_t>(t);
      EXPECT_TRUE(same_bits(layer->forward(xs[st], t, Mode::kEval),
                            trained.spikes[st]))
          << "t=" << t;
    }
    // Eval keeps no history.
    EXPECT_THROW(layer->backward(gs[3], 3), std::logic_error);
  }
}

TEST(PlifLanes, BackwardRejectsThresholdChangedSinceForward) {
  PlifConfig cfg;
  cfg.train_vth = true;
  Plif p("p", cfg);
  p.reset_state();
  const tensor::Tensor x({1, 9}, 0.7f);
  p.forward(x, 0, Mode::kTrain);
  p.set_vth(0.9f);
  EXPECT_THROW(p.backward(tensor::Tensor({1, 9}), 0), std::logic_error);
  p.set_vth(1.0f);
  EXPECT_NO_THROW(p.backward(tensor::Tensor({1, 9}), 0));
}

TEST(PlifLanes, ForceScalarEnvPickup) {
  ::setenv("FALVOLT_FORCE_SCALAR", "1", 1);
  EXPECT_TRUE(Plif("p").force_scalar());
  ::setenv("FALVOLT_FORCE_SCALAR", "0", 1);
  EXPECT_FALSE(Plif("p").force_scalar());
  ::unsetenv("FALVOLT_FORCE_SCALAR");
  EXPECT_FALSE(Plif("p").force_scalar());
}

}  // namespace
}  // namespace falvolt::snn
