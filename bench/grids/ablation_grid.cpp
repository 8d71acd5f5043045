// Ablations of FalVolt's design choices (DESIGN.md §5), all on the MNIST
// workload at 30% faulty PEs:
//   A1  per-layer learnable V_th (FalVolt)  vs  one global learnable V_th
//       vs  frozen V_th (FaPIT)
//   A2  re-zeroing pruned weights every epoch (Algorithm 1 line 13)
//       vs  only once after training
//   A3  surrogate gradient kind during retraining (triangle / sigmoid /
//       rectangle)
//   A4  accumulator width of the PE (16-bit Q8.8 vs 32-bit Q16.16) for
//       the unmitigated MSB-fault collapse
//
// Grid, scenario function (including the custom-retrain loop the arms
// share) and the four ablation tables, run by the ablation_falvolt
// binary and the sweep_fleet driver alike.

#include <memory>

#include "bench_common.h"
#include "core/grid_registry.h"
#include "fault/prune_mask.h"
#include "snn/optimizer.h"
#include "snn/trainer.h"

namespace falvolt::bench::ablation {

namespace {

/// Retrain `net` with pruning; `tie_vth` averages all hidden thresholds
/// after each epoch (the "global V_th" arm), `rezero_each_epoch` toggles
/// Algorithm 1 line 13.
double retrain_custom(snn::Network& net, const data::DatasetSplit& data,
                      const fault::FaultMap& map, int epochs, bool train_vth,
                      bool tie_vth, bool rezero_each_epoch) {
  fault::NetworkPruner pruner = core::prune_network(net, map);
  for (snn::Plif* p : net.hidden_spiking_layers()) {
    p->set_vth(1.0f);
    p->set_train_vth(train_vth);
  }
  constexpr double kLr = 1e-2;
  snn::Adam opt(kLr);
  snn::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 32;
  tc.eval_each_epoch = false;
  tc.epoch_span = "retrain.epoch";
  const int decay_epoch = (3 * epochs) / 5;
  tc.on_epoch = [&opt, decay_epoch](const snn::EpochStats& s) {
    if (s.epoch + 1 == decay_epoch) opt.set_lr(kLr / 4.0);
  };
  tc.post_epoch = [&](snn::Network& n) {
    if (rezero_each_epoch) pruner.apply(n);
    if (tie_vth) {
      const auto layers = n.hidden_spiking_layers();
      float mean = 0.0f;
      for (snn::Plif* p : layers) mean += p->vth();
      mean /= static_cast<float>(layers.size());
      for (snn::Plif* p : layers) p->set_vth(mean);
    }
  };
  snn::Trainer trainer(net, opt, data.train, &data.test, tc);
  trainer.run();
  pruner.apply(net);  // final re-zero (hardware bypass is mandatory)
  net.set_train_vth(false);
  return core::evaluate_pruned(net, data.test);
}

struct Arm {
  const char* ablation;
  const char* arm;
};

const std::vector<Arm>& arms() {
  // A2's "every epoch" arm is bit-identical to A1's per-layer arm (same
  // clone, map, and retrain_custom arguments, and scenarios are
  // deterministic), so it is aliased by the report instead of
  // recomputed.
  static const std::vector<Arm> kArms = {
      {"vth_granularity", "per_layer"}, {"vth_granularity", "global"},
      {"vth_granularity", "frozen"},    {"rezero", "end_only"},
      {"surrogate", "triangle"},        {"surrogate", "sigmoid"},
      {"surrogate", "rectangle"},       {"accumulator_width", "q8_8"},
      {"accumulator_width", "q16_16"}};
  return kArms;
}

int epochs(const common::CliFlags& cli) {
  // The ablation arms retrain from a harsher start than the figures, so
  // the default gets two extra epochs.
  return retrain_epochs_flag(cli, core::DatasetKind::kMnist, /*extra=*/2);
}

std::string cell_key(const std::string& ablation, const std::string& arm) {
  return ablation + "/" + arm;
}

void report(const common::CliFlags&, const core::ResultTable& results,
            io::CsvWriter& csv) {
  if (!results.complete()) return;
  const auto acc_of = [&](const std::string& key) {
    return results.get(key).metrics.front().second;
  };

  // The CSV is every cell's own row in arm order, plus the A2
  // "every_epoch" row, which aliases the bit-identical A1 per-layer
  // result (see arms()).
  for (const core::ScenarioResult& r : results.rows()) {
    if (r.scenario.key == "rezero/end_only") {
      csv.row({"rezero", "every_epoch",
               io::CsvWriter::format(acc_of("vth_granularity/per_layer"))});
    }
    csv.row(r.csv_rows.front());
  }

  common::TextTable a1({"vth granularity", "accuracy"});
  a1.row_labeled("per-layer (FalVolt)", {acc_of("vth_granularity/per_layer")},
                 1);
  a1.row_labeled("global (tied)", {acc_of("vth_granularity/global")}, 1);
  a1.row_labeled("frozen @1.0 (FaPIT)", {acc_of("vth_granularity/frozen")},
                 1);
  std::printf("\nA1 — threshold-voltage granularity:\n");
  a1.print();

  common::TextTable a2({"re-zero cadence", "accuracy"});
  a2.row_labeled("every epoch (Alg.1 L13)",
                 {acc_of("vth_granularity/per_layer")}, 1);
  a2.row_labeled("end of training only", {acc_of("rezero/end_only")}, 1);
  std::printf("\nA2 — pruned-weight re-zero cadence:\n");
  a2.print();

  common::TextTable a3({"surrogate", "accuracy"});
  for (const char* arm : {"triangle", "sigmoid", "rectangle"}) {
    const core::ScenarioResult& r = results.get(cell_key("surrogate", arm));
    a3.row_labeled(r.csv_rows.front()[1], {r.metrics.front().second}, 1);
  }
  std::printf("\nA3 — surrogate gradient during retraining:\n");
  a3.print();

  common::TextTable a4({"accumulator", "clean acc", "8 faulty PEs (MSB sa1)"});
  for (const char* arm : {"q8_8", "q16_16"}) {
    const core::ScenarioResult& r =
        results.get(cell_key("accumulator_width", arm));
    a4.row_labeled(r.csv_rows.front()[1],
                   {r.metrics[0].second, r.metrics[1].second}, 1);
  }
  std::printf("\nA4 — accumulator width (quantization + MSB sa1 collapse):\n");
  a4.print();
}

}  // namespace

void register_grid() {
  core::GridDef def;
  def.name = "ablation_falvolt";
  def.datasets = {core::DatasetKind::kMnist};
  def.title =
      "FalVolt design-choice ablations (MNIST, 30% faulty PEs unless "
      "noted)";
  def.add_flags = [](common::CliFlags& cli) {
    cli.add_int("epochs", 0, "retraining epochs (0 = default)");
    cli.add_double("rate", 0.30, "fault rate");
  };
  def.scenarios = [](const common::CliFlags& cli) {
    // This grid is MNIST-only: dataset_list rejects a --datasets that
    // asks for anything else rather than silently running MNIST.
    (void)dataset_list(cli, {core::DatasetKind::kMnist});
    const int cell_epochs = epochs(cli);
    const double rate = cli.get_double("rate");
    std::vector<core::Scenario> scenarios;
    for (const Arm& a : arms()) {
      core::Scenario s;
      s.key = cell_key(a.ablation, a.arm);
      s.tag = a.arm;
      s.dataset = core::DatasetKind::kMnist;
      s.fault_rate = rate;
      s.fault_seed =
          std::string(a.ablation) == "accumulator_width" ? 8100 : 8000;
      s.retrain = std::string(a.ablation) != "accumulator_width";
      s.epochs = cell_epochs;
      scenarios.push_back(s);
    }
    return scenarios;
  };
  def.scenario_fn = [](const common::CliFlags& cli,
                       const core::SweepContext& ctx) {
    const systolic::ArrayConfig array = experiment_array(cli);
    const auto eval_sets = std::make_shared<EvalSets>(ctx, 96);
    return [array, eval_sets](const core::Scenario& s,
                              const core::SweepContext& c) {
      const core::Workload& wl = c.workload(s.dataset);
      snn::Network net = c.clone_network(s.dataset);
      core::ScenarioResult out;

      if (s.key.rfind("accumulator_width/", 0) == 0) {
        // A4: unmitigated MSB collapse at two accumulator widths.
        const fx::FixedFormat fmt = s.tag == "q8_8"
                                        ? fx::FixedFormat::q8_8()
                                        : fx::FixedFormat::q16_16();
        systolic::ArrayConfig a = array;
        a.format = fmt;
        common::Rng map_rng(s.fault_seed);
        const fault::FaultMap m = fault::random_fault_map(
            a.rows, a.cols, 8, fault::worst_case_spec(fmt.total_bits()),
            map_rng);
        const fault::FaultMap clean(a.rows, a.cols);
        const snn::EvalBatch& eval_set = eval_sets->batch(s.dataset);
        const double acc_clean = core::evaluate_with_faults(
            net, eval_set, a, clean,
            systolic::SystolicGemmEngine::FaultHandling::kCorrupt);
        const double acc_faulty = core::evaluate_with_faults(
            net, eval_set, a, m,
            systolic::SystolicGemmEngine::FaultHandling::kCorrupt);
        out.metrics = {{"clean_accuracy", acc_clean},
                       {"faulty_accuracy", acc_faulty}};
        out.csv_rows = {{"accumulator_width", fmt.to_string(),
                         io::CsvWriter::format(acc_faulty)}};
        return out;
      }

      common::Rng rng(s.fault_seed);
      const fault::FaultMap map = fault::fault_map_at_rate(
          array.rows, array.cols, s.fault_rate,
          fault::worst_case_spec(array.format.total_bits()), rng);

      if (s.key.rfind("surrogate/", 0) == 0) {
        // A3: surrogate kind during retraining.
        snn::Surrogate sg;
        sg.kind = s.tag == "sigmoid"     ? snn::SurrogateKind::kSigmoid
                  : s.tag == "rectangle" ? snn::SurrogateKind::kRectangle
                                         : snn::SurrogateKind::kTriangle;
        sg.gamma = sg.kind == snn::SurrogateKind::kSigmoid ? 4.0f : 2.0f;
        for (snn::Plif* p : net.spiking_layers()) p->set_surrogate(sg);
        const double acc =
            retrain_custom(net, wl.data, map, s.epochs, true, false, true);
        out.metrics = {{"accuracy", acc}};
        out.csv_rows = {{"surrogate", sg.to_string(),
                         io::CsvWriter::format(acc)}};
        return out;
      }

      // A1/A2: threshold granularity and re-zero cadence.
      const bool train_vth = s.tag != "frozen";
      const bool tie_vth = s.tag == "global";
      const bool rezero = s.tag != "end_only";
      const double acc = retrain_custom(net, wl.data, map, s.epochs,
                                        train_vth, tie_vth, rezero);
      out.metrics = {{"accuracy", acc}};
      const char* ablation =
          s.key.rfind("rezero/", 0) == 0 ? "rezero" : "vth_granularity";
      out.csv_rows = {{ablation, s.tag, io::CsvWriter::format(acc)}};
      return out;
    };
  };
  def.label = "Ablations";
  def.csv_columns = {"ablation", "arm", "accuracy"};
  def.report = report;
  def.note =
      "\nTakeaways: per-layer V_th >= global >= frozen; epoch-wise "
      "re-zeroing matters because the optimizer keeps regrowing bypassed "
      "weights; the triangle surrogate (paper Eq. 2) is competitive; MSB "
      "faults collapse accuracy at either word width.\n";
  core::GridRegistry::instance().add(std::move(def));
}

}  // namespace falvolt::bench::ablation
