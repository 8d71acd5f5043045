#include "core/falvolt.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/fap.h"
#include "data/synthetic_mnist.h"
#include "fault/fault_generator.h"
#include "obs/trace.h"
#include "snn/model_zoo.h"
#include "snn/optimizer.h"
#include "snn/trainer.h"

namespace falvolt::core {
namespace {

snn::ZooConfig tiny_zoo() {
  snn::ZooConfig z;
  z.channels = 8;
  z.fc_hidden = 32;
  return z;
}

struct Fixture {
  Fixture() {
    data::SyntheticMnistConfig dc;
    dc.train_size = 160;
    dc.test_size = 80;
    dc.time_steps = 4;
    split = data::make_synthetic_mnist(dc);
    snn::Network net = snn::make_digit_classifier("d", 1, 16, 10, tiny_zoo());
    snn::Adam opt(2e-2);
    snn::TrainConfig tc;
    tc.epochs = 12;
    tc.batch_size = 16;
    tc.eval_each_epoch = false;
    snn::Trainer trainer(net, opt, split.train, &split.test, tc);
    trainer.run();
    snapshot = net.snapshot_params();
    baseline = snn::evaluate(net, split.test);
  }
  snn::Network fresh_copy() {
    snn::Network n = snn::make_digit_classifier("d", 1, 16, 10, tiny_zoo());
    n.restore_params(snapshot);
    return n;
  }
  data::DatasetSplit split{data::Dataset("a", 1, 1, 1, 1, 1),
                           data::Dataset("b", 1, 1, 1, 1, 1)};
  std::vector<tensor::Tensor> snapshot;
  double baseline = 0.0;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

MitigationConfig cfg16(int epochs = 8) {
  MitigationConfig cfg;
  cfg.array.rows = cfg.array.cols = 16;
  cfg.retrain_epochs = epochs;
  cfg.batch_size = 16;
  return cfg;
}

TEST(FalVolt, RecoversAccuracyAt30PercentFaults) {
  Fixture& f = fixture();
  common::Rng rng(1);
  const fault::FaultMap map = fault::fault_map_at_rate(
      16, 16, 0.3, fault::worst_case_spec(16), rng);
  snn::Network net = f.fresh_copy();
  const MitigationResult r =
      run_falvolt(net, map, f.split.train, f.split.test, cfg16());
  EXPECT_EQ(r.method, "FalVolt");
  EXPECT_GT(r.final_accuracy, r.pruned_accuracy - 1e-9);
  // Recovery close to baseline (paper: negligible drop).
  EXPECT_GT(r.final_accuracy, f.baseline - 20.0);
}

TEST(FalVolt, BeatsOrMatchesFapAtEveryRate) {
  Fixture& f = fixture();
  for (const double rate : {0.1, 0.3}) {
    common::Rng rng(static_cast<std::uint64_t>(rate * 100));
    const fault::FaultMap map = fault::fault_map_at_rate(
        16, 16, rate, fault::worst_case_spec(16), rng);
    snn::Network fap_net = f.fresh_copy();
    const double fap_acc = run_fap(fap_net, map, f.split.test).final_accuracy;
    snn::Network fv_net = f.fresh_copy();
    const double fv_acc =
        run_falvolt(fv_net, map, f.split.train, f.split.test, cfg16())
            .final_accuracy;
    EXPECT_GE(fv_acc + 1e-9, fap_acc) << "rate=" << rate;
  }
}

TEST(FalVolt, LearnsPerLayerThresholds) {
  Fixture& f = fixture();
  common::Rng rng(2);
  const fault::FaultMap map = fault::fault_map_at_rate(
      16, 16, 0.3, fault::worst_case_spec(16), rng);
  snn::Network net = f.fresh_copy();
  const MitigationResult r =
      run_falvolt(net, map, f.split.train, f.split.test, cfg16());
  ASSERT_EQ(r.vth_per_layer.size(), 4u);  // Conv1, Conv2, FC1, FC2
  EXPECT_EQ(r.vth_per_layer[0].layer, "PLIF1");
  EXPECT_EQ(r.vth_per_layer[3].layer, "PLIF_FC2");
  // Thresholds stay in the clamp range.
  for (const auto& v : r.vth_per_layer) {
    EXPECT_GE(v.vth, 0.05f);
    EXPECT_LE(v.vth, 2.0f);
  }
}

TEST(FaPIT, KeepsVthFixed) {
  Fixture& f = fixture();
  common::Rng rng(3);
  const fault::FaultMap map = fault::fault_map_at_rate(
      16, 16, 0.3, fault::worst_case_spec(16), rng);
  snn::Network net = f.fresh_copy();
  const MitigationResult r =
      run_fapit(net, map, f.split.train, f.split.test, cfg16());
  EXPECT_EQ(r.method, "FaPIT");
  for (const auto& v : r.vth_per_layer) {
    EXPECT_FLOAT_EQ(v.vth, 1.0f);
  }
}

// Complete events named `name` in a Chrome trace file's text.
int count_spans(const std::string& body, const std::string& name) {
  const std::string needle = "{\"name\": \"" + name + "\"";
  int n = 0;
  for (std::size_t at = body.find(needle); at != std::string::npos;
       at = body.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(FalVolt, TracesPhasesWithoutChangingResults) {
  Fixture& f = fixture();  // trains the baseline before tracing starts
  common::Rng rng(5);
  const fault::FaultMap map = fault::fault_map_at_rate(
      16, 16, 0.3, fault::worst_case_spec(16), rng);
  snn::Network plain = f.fresh_copy();
  const MitigationResult want =
      run_falvolt(plain, map, f.split.train, f.split.test, cfg16(2));

  const std::string path = ::testing::TempDir() + "falvolt_phases.json";
  obs::trace_start(path);
  snn::Network traced = f.fresh_copy();
  const MitigationResult got =
      run_falvolt(traced, map, f.split.train, f.split.test, cfg16(2));
  obs::trace_stop();
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  std::remove(path.c_str());

  // One prune, one span per retraining epoch, and the pruned and final
  // evaluations.
  EXPECT_EQ(count_spans(body.str(), "prune"), 1);
  EXPECT_EQ(count_spans(body.str(), "retrain.epoch"), 2);
  EXPECT_EQ(count_spans(body.str(), "faulty_eval"), 2);
  EXPECT_EQ(count_spans(body.str(), "train.epoch"), 0);
  EXPECT_EQ(got.final_accuracy, want.final_accuracy);
  EXPECT_EQ(got.best_accuracy, want.best_accuracy);
  ASSERT_EQ(got.vth_per_layer.size(), want.vth_per_layer.size());
  for (std::size_t i = 0; i < want.vth_per_layer.size(); ++i) {
    EXPECT_EQ(got.vth_per_layer[i].vth, want.vth_per_layer[i].vth);
  }
}

TEST(FixedVthRetraining, LabelsAndUsesGivenThreshold) {
  Fixture& f = fixture();
  common::Rng rng(4);
  const fault::FaultMap map = fault::fault_map_at_rate(
      16, 16, 0.1, fault::worst_case_spec(16), rng);
  snn::Network net = f.fresh_copy();
  const MitigationResult r = run_fixed_vth_retraining(
      net, map, f.split.train, f.split.test, cfg16(2), 0.55f);
  EXPECT_EQ(r.method, "retrain@vth=0.55");
  for (const auto& v : r.vth_per_layer) {
    EXPECT_FLOAT_EQ(v.vth, 0.55f);
  }
}

TEST(EvaluateWithFaults, CorruptionWorseThanBypass) {
  Fixture& f = fixture();
  common::Rng rng(5);
  systolic::ArrayConfig array;
  array.rows = array.cols = 16;
  const fault::FaultMap map = fault::random_fault_map(
      16, 16, 24, fault::worst_case_spec(16), rng);
  snn::Network net = f.fresh_copy();
  const double corrupted = evaluate_with_faults(
      net, f.split.test, array, map,
      systolic::SystolicGemmEngine::FaultHandling::kCorrupt);
  const double bypassed = evaluate_with_faults(
      net, f.split.test, array, map,
      systolic::SystolicGemmEngine::FaultHandling::kBypass);
  EXPECT_LE(corrupted, bypassed + 5.0);
  // MSB stuck-at-1 on ~9% of PEs collapses the unmitigated accuracy.
  EXPECT_LT(corrupted, f.baseline - 20.0);
}

TEST(EvaluateWithFaults, RestoresFloatEngine) {
  Fixture& f = fixture();
  common::Rng rng(6);
  systolic::ArrayConfig array;
  array.rows = array.cols = 16;
  const fault::FaultMap map =
      fault::random_fault_map(16, 16, 8, fault::worst_case_spec(16), rng);
  snn::Network net = f.fresh_copy();
  const double before = snn::evaluate(net, f.split.test);
  evaluate_with_faults(net, f.split.test, array, map,
                       systolic::SystolicGemmEngine::FaultHandling::kCorrupt);
  const double after = snn::evaluate(net, f.split.test);
  EXPECT_DOUBLE_EQ(before, after);
}

TEST(EvaluateWithFaults, PrebuiltBatchMatchesDataset) {
  // The EvalBatch overload (batched eval mode — one plan + fault
  // schedule amortized across all samples) must score bit-identically
  // to the per-dataset overload: stored grid cells depend on it.
  Fixture& f = fixture();
  common::Rng rng(7);
  systolic::ArrayConfig array;
  array.rows = array.cols = 16;
  const fault::FaultMap map = fault::random_fault_map(
      16, 16, 12, fault::worst_case_spec(16), rng);
  const snn::EvalBatch batch = snn::make_eval_batch(f.split.test);
  for (const auto handling :
       {systolic::SystolicGemmEngine::FaultHandling::kCorrupt,
        systolic::SystolicGemmEngine::FaultHandling::kBypass}) {
    snn::Network net = f.fresh_copy();
    const double from_ds =
        evaluate_with_faults(net, f.split.test, array, map, handling);
    const double from_batch =
        evaluate_with_faults(net, batch, array, map, handling);
    EXPECT_DOUBLE_EQ(from_ds, from_batch);
  }
}

}  // namespace
}  // namespace falvolt::core
