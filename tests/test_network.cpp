#include "snn/network.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "fault/fault_generator.h"
#include "snn/conv2d.h"
#include "snn/flatten.h"
#include "snn/linear.h"
#include "snn/model_zoo.h"
#include "snn/plif.h"
#include "systolic/faulty_gemm.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace falvolt::snn {
namespace {

Network tiny_net(std::uint64_t seed = 1) {
  common::Rng rng(seed);
  Network net("tiny");
  net.emplace<Conv2d>("SEncConv", 1, 2, 3, 1, rng);
  net.emplace<Plif>("SEncPLIF");
  net.emplace<Conv2d>("Conv1", 2, 2, 3, 1, rng);
  net.emplace<Plif>("PLIF1");
  net.emplace<Flatten>("Flatten");
  net.emplace<Linear>("FC1", 2 * 4 * 4, 3, rng);
  net.emplace<Plif>("PLIF_FC1");
  return net;
}

TEST(Network, ForwardProducesClassOutputs) {
  Network net = tiny_net();
  net.reset_state();
  common::Rng rng(2);
  tensor::Tensor x = falvolt::testutil::random_tensor({2, 1, 4, 4}, rng,
                                                      0.0, 1.0);
  const tensor::Tensor y = net.forward(x, 0, Mode::kEval);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 3}));
}

TEST(Network, ParamsCollectsAllLayers) {
  Network net = tiny_net();
  // SEncConv(w, b) + SEncPLIF(vth, w_tau) + Conv1(w, b) + PLIF1(2) +
  // FC1(w, b) + PLIF_FC1(2) = 12 params.
  EXPECT_EQ(net.params().size(), 12u);
}

TEST(Network, ZeroGradClearsAll) {
  Network net = tiny_net();
  for (Param* p : net.params()) p->grad.fill(3.0f);
  net.zero_grad();
  for (Param* p : net.params()) {
    for (std::size_t i = 0; i < p->grad.size(); ++i) {
      ASSERT_EQ(p->grad[i], 0.0f);
    }
  }
}

TEST(Network, SpikingLayerDiscovery) {
  Network net = tiny_net();
  EXPECT_EQ(net.spiking_layers().size(), 3u);
  // The encoder PLIF must be excluded from the hidden set (Fig. 6 reports
  // only hidden conv/FC thresholds).
  const auto hidden = net.hidden_spiking_layers();
  ASSERT_EQ(hidden.size(), 2u);
  EXPECT_EQ(hidden[0]->name(), "PLIF1");
  EXPECT_EQ(hidden[1]->name(), "PLIF_FC1");
}

TEST(Network, MatmulLayerDiscovery) {
  Network net = tiny_net();
  const auto mm = net.matmul_layers();
  ASSERT_EQ(mm.size(), 3u);
  EXPECT_EQ(mm[0]->matmul_name(), "SEncConv");
  EXPECT_EQ(mm[2]->matmul_name(), "FC1");
}

TEST(Network, SetTrainVthOnlyTouchesHiddenLayers) {
  Network net = tiny_net();
  net.set_train_vth(true);
  for (Plif* p : net.hidden_spiking_layers()) {
    EXPECT_TRUE(p->train_vth());
  }
  // Encoder layer stays frozen.
  EXPECT_FALSE(net.spiking_layers()[0]->train_vth());
  net.set_train_vth(false);
  for (Plif* p : net.spiking_layers()) EXPECT_FALSE(p->train_vth());
}

TEST(Network, SnapshotRestoreRoundTrip) {
  Network net = tiny_net();
  const auto snap = net.snapshot_params();
  const auto params = net.params();
  params[0]->value.fill(9.0f);
  net.restore_params(snap);
  EXPECT_EQ(tensor::max_abs_diff(params[0]->value, snap[0]), 0.0);
}

TEST(Network, RestoreRejectsWrongInventory) {
  Network net = tiny_net();
  auto snap = net.snapshot_params();
  snap.pop_back();
  EXPECT_THROW(net.restore_params(snap), std::invalid_argument);
}

TEST(Network, DeterministicGivenSeedAndInput) {
  Network a = tiny_net(5);
  Network b = tiny_net(5);
  common::Rng rng(3);
  tensor::Tensor x = falvolt::testutil::random_tensor({1, 1, 4, 4}, rng,
                                                      0.0, 1.0);
  a.reset_state();
  b.reset_state();
  const tensor::Tensor ya = a.forward(x, 0, Mode::kEval);
  const tensor::Tensor yb = b.forward(x, 0, Mode::kEval);
  EXPECT_EQ(tensor::max_abs_diff(ya, yb), 0.0);
}

TEST(Network, NumTrainableScalarsExcludesFrozen) {
  Network net = tiny_net();
  const std::size_t all = net.num_trainable_scalars();
  net.set_train_vth(true);
  // vth params were already counted? They are Params with trainable flag;
  // enabling training on 2 hidden layers adds 2 scalars.
  EXPECT_EQ(net.num_trainable_scalars(), all + 2);
}

// rate_forward's reference: a plain per-step forward loop over every
// layer, summing the outputs and dividing by T.
tensor::Tensor manual_rate(Network& net,
                           const std::vector<tensor::Tensor>& steps) {
  net.reset_state();
  tensor::Tensor sum;
  for (std::size_t t = 0; t < steps.size(); ++t) {
    tensor::Tensor out =
        net.forward(steps[t], static_cast<int>(t), Mode::kEval);
    if (sum.empty()) {
      sum = std::move(out);
    } else {
      tensor::add_inplace(sum, out);
    }
  }
  tensor::scale_inplace(sum, 1.0f / static_cast<float>(steps.size()));
  return sum;
}

bool same_bytes(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Network, RateForwardHoistingMatchesPerStepLoop) {
  // The digit classifier's stateless prefix is SEncConv. Its output is
  // reused at a step whose input repeats the previous one bytewise; the
  // result must equal the per-step loop bit for bit on the float engine
  // and on a faulty systolic engine, whatever the step pattern.
  // A low threshold makes the untrained network spike through to the
  // output layer, so the comparison below is not between all-zero rates.
  ZooConfig zc;
  zc.initial_vth = 0.1f;
  Network net = make_digit_classifier("digit", 1, 16, 10, zc);
  common::Rng rng(9);
  const tensor::Tensor a =
      falvolt::testutil::random_tensor({3, 1, 16, 16}, rng, 0.0, 1.0);
  const tensor::Tensor b =
      falvolt::testutil::random_tensor({3, 1, 16, 16}, rng, 0.0, 1.0);
  const tensor::Tensor c =
      falvolt::testutil::random_tensor({3, 1, 16, 16}, rng, 0.0, 1.0);
  const tensor::Tensor d =
      falvolt::testutil::random_tensor({3, 1, 16, 16}, rng, 0.0, 1.0);
  const std::vector<std::vector<tensor::Tensor>> patterns = {
      {a, a, a, a},  // all identical: 3 of 4 SEncConv passes skipped
      {a, b, c, d},  // all different: nothing skipped
      {a, a, b, b},  // breaks and resumes: 2 skipped
  };

  systolic::ArrayConfig cfg;
  cfg.rows = cfg.cols = 8;
  common::Rng fault_rng(10);
  const fault::FaultMap map = fault::random_fault_map(
      8, 8, 6, fault::worst_case_spec(cfg.format.total_bits()), fault_rng);
  systolic::SystolicGemmEngine engine(cfg, &map);

  for (snn::GemmEngine* eng :
       {static_cast<snn::GemmEngine*>(nullptr),
        static_cast<snn::GemmEngine*>(&engine)}) {
    net.set_gemm_engine(eng);
    for (const auto& steps : patterns) {
      const tensor::Tensor rate = net.rate_forward(steps);
      EXPECT_GT(tensor::count_nonzero(rate), 0u);
      EXPECT_TRUE(same_bytes(rate, manual_rate(net, steps)));
    }
  }

  // With all steps identical, the hoisted run executes exactly three
  // fewer SEncConv GEMMs than the per-step loop.
  net.set_gemm_engine(&engine);
  const std::uint64_t s0 = engine.accumulate_steps();
  net.layer(0).forward(a, 0, Mode::kEval);
  const std::uint64_t senc_steps = engine.accumulate_steps() - s0;
  ASSERT_GT(senc_steps, 0u);
  const std::uint64_t s1 = engine.accumulate_steps();
  net.rate_forward(patterns[0]);
  const std::uint64_t s2 = engine.accumulate_steps();
  manual_rate(net, patterns[0]);
  const std::uint64_t s3 = engine.accumulate_steps();
  EXPECT_EQ((s3 - s2) - (s2 - s1), 3 * senc_steps);
  net.set_gemm_engine(nullptr);
}

// One T-step BPTT pass: forward in train mode, then backward with a fixed
// output gradient per step, either through Network::backward or through
// a plain reversed per-layer Layer::backward loop.
void bptt_pass(Network& net, const std::vector<tensor::Tensor>& steps,
               const tensor::Tensor& grad, bool network_backward) {
  net.reset_state();
  net.zero_grad();
  const int t_steps = static_cast<int>(steps.size());
  for (int t = 0; t < t_steps; ++t) {
    net.forward(steps[static_cast<std::size_t>(t)], t, Mode::kTrain);
  }
  for (int t = t_steps - 1; t >= 0; --t) {
    if (network_backward) {
      net.backward(grad, t);
      continue;
    }
    tensor::Tensor cur = grad;
    for (int i = net.num_layers() - 1; i >= 0; --i) {
      cur = net.layer(i).backward(cur, t);
    }
  }
}

TEST(Network, BackwardSkipsOnlyTheInputGradient) {
  // Network::backward leaves out the first layer's input gradient; every
  // parameter gradient must still equal the full per-layer loop's bit for
  // bit. Two identically seeded copies draw the same dropout masks.
  ZooConfig zc;
  zc.initial_vth = 0.1f;
  struct Case {
    std::function<Network()> make;
    tensor::Shape input;
    int classes;
  };
  const std::vector<Case> cases = {
      {[&] { return make_digit_classifier("digit", 1, 16, 10, zc); },
       {3, 1, 16, 16}, 10},
      {[&] { return make_gesture_classifier("gesture", 2, 24, 11, zc); },
       {2, 2, 24, 24}, 11},
  };
  for (const Case& c : cases) {
    Network fast = c.make();
    Network full = c.make();
    common::Rng rng(17);
    std::vector<tensor::Tensor> steps;
    for (int t = 0; t < 4; ++t) {
      steps.push_back(
          falvolt::testutil::random_tensor(c.input, rng, 0.0, 1.0));
    }
    const tensor::Tensor grad =
        falvolt::testutil::random_tensor({c.input[0], c.classes}, rng);
    bptt_pass(fast, steps, grad, /*network_backward=*/true);
    bptt_pass(full, steps, grad, /*network_backward=*/false);
    const std::vector<Param*> pf = fast.params();
    const std::vector<Param*> pr = full.params();
    ASSERT_EQ(pf.size(), pr.size());
    for (std::size_t i = 0; i < pf.size(); ++i) {
      EXPECT_TRUE(same_bytes(pf[i]->grad, pr[i]->grad)) << pf[i]->name;
    }
    // The first layer (SEncConv) still gets its weight and bias grads.
    const std::vector<Param*> first = fast.layer(0).params();
    ASSERT_EQ(first.size(), 2u);
    for (const Param* p : first) {
      EXPECT_GT(tensor::count_nonzero(p->grad), 0u) << p->name;
    }
  }
}

TEST(ModelZoo, DigitClassifierShapes) {
  Network net = make_digit_classifier("digit", 1, 16, 10);
  net.reset_state();
  tensor::Tensor x({2, 1, 16, 16}, 0.5f);
  const tensor::Tensor y = net.forward(x, 0, Mode::kEval);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 10}));
  // Fig. 6a layout: exactly 4 hidden spiking layers Conv1/Conv2/FC1/FC2.
  const auto hidden = net.hidden_spiking_layers();
  ASSERT_EQ(hidden.size(), 4u);
  EXPECT_EQ(hidden[0]->name(), "PLIF1");
  EXPECT_EQ(hidden[3]->name(), "PLIF_FC2");
}

TEST(ModelZoo, GestureClassifierShapes) {
  Network net = make_gesture_classifier("gesture", 2, 24, 11);
  net.reset_state();
  tensor::Tensor x({1, 2, 24, 24}, 0.0f);
  const tensor::Tensor y = net.forward(x, 0, Mode::kEval);
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 11}));
  // Fig. 6c layout: Conv1..Conv5 + FC1 + FC2 -> 7 hidden spiking layers.
  EXPECT_EQ(net.hidden_spiking_layers().size(), 7u);
}

TEST(ModelZoo, CanvasValidation) {
  EXPECT_THROW(make_digit_classifier("d", 1, 18, 10), std::invalid_argument);
  EXPECT_THROW(make_gesture_classifier("g", 2, 20, 11),
               std::invalid_argument);
}

}  // namespace
}  // namespace falvolt::snn
