// Gesture-pipeline grid — the battery-driven edge scenario from the
// paper's introduction (examples/gesture_pipeline.cpp) as registered
// scenarios: an event-camera gesture classifier on a systolic SNN
// accelerator that developed permanent faults in the field, swept over
// in-field fault rates with and without FalVolt recalibration.
//
// Cells: (fault rate) x (unmitigated | falvolt) on the DVS-Gesture
// workload. The falvolt arm retrains a clone against the damage map
// (field recalibration); the unmitigated arm is the accuracy the device
// limps along at until it does.

#include "bench_common.h"
#include "core/grid_registry.h"

namespace falvolt::bench::gesture {

namespace {

const std::vector<double>& rates() {
  static const std::vector<double> kRates = {0.10, 0.20, 0.30};
  return kRates;
}

const std::vector<std::string>& methods() {
  static const std::vector<std::string> kMethods = {"unmitigated",
                                                    "falvolt"};
  return kMethods;
}

std::string cell_key(double rate, const std::string& method) {
  return "rate=" + common::TextTable::format(rate * 100, 0) + "/" + method;
}

}  // namespace

void register_grid() {
  core::GridDef def;
  def.name = "gesture_pipeline";
  def.datasets = {core::DatasetKind::kDvsGesture};
  def.title =
      "In-field gesture pipeline on a damaged edge accelerator: accuracy "
      "vs fault rate, unmitigated vs FalVolt recalibration (DVS-Gesture)";
  def.add_flags = [](common::CliFlags& cli) {
    cli.add_int("epochs", 0,
                "recalibration retraining epochs (0 = per-dataset default)");
  };
  def.scenarios = [](const common::CliFlags& cli) {
    (void)dataset_list(cli, {core::DatasetKind::kDvsGesture});
    const int epochs =
        retrain_epochs_flag(cli, core::DatasetKind::kDvsGesture);
    std::vector<core::Scenario> scenarios;
    for (const double rate : rates()) {
      for (const std::string& method : methods()) {
        core::Scenario s;
        s.key = cell_key(rate, method);
        s.tag = method;
        s.dataset = core::DatasetKind::kDvsGesture;
        s.fault_rate = rate;
        // Both arms face the SAME damage map at a given rate — the
        // comparison is mitigation, not fault placement.
        s.fault_seed = 9900 + static_cast<std::uint64_t>(rate * 100);
        s.retrain = method == "falvolt";
        s.epochs = s.retrain ? epochs : 0;
        scenarios.push_back(s);
      }
    }
    return scenarios;
  };
  def.scenario_fn = [](const common::CliFlags& cli,
                       const core::SweepContext& ctx) {
    const systolic::ArrayConfig array = experiment_array(cli);
    // n = 0: the FULL test split, as one shared prebuilt batch.
    const auto eval_sets = std::make_shared<EvalSets>(ctx, 0);
    return [array, eval_sets](const core::Scenario& s,
                              const core::SweepContext& c) {
      const core::Workload& wl = c.workload(s.dataset);
      snn::Network net = c.clone_network(s.dataset);
      common::Rng rng(s.fault_seed);
      const fault::FaultMap map = fault::fault_map_at_rate(
          array.rows, array.cols, s.fault_rate,
          fault::worst_case_spec(array.format.total_bits()), rng);
      core::ScenarioResult out;
      double acc = 0.0;
      // BOTH arms score on the full test split, exactly like the
      // example this grid reproduces — the recovery delta must not mix
      // evaluation protocols.
      if (s.retrain) {
        core::MitigationConfig cfg;
        cfg.array = array;
        cfg.retrain_epochs = s.epochs;
        cfg.eval_each_epoch = false;
        const core::MitigationResult r = core::run_falvolt(
            net, map, wl.data.train, wl.data.test, cfg);
        acc = r.final_accuracy;
      } else {
        acc = core::evaluate_with_faults(
            net, eval_sets->batch(s.dataset), array, map,
            systolic::SystolicGemmEngine::FaultHandling::kCorrupt);
      }
      out.metrics = {{"accuracy", acc}};
      out.csv_rows = {{io::CsvWriter::format(s.fault_rate * 100),
                       s.tag, io::CsvWriter::format(acc)}};
      logf(out.log, "  rate=%2.0f%% %-12s -> %.1f%%\n",
           s.fault_rate * 100, s.tag.c_str(), acc);
      return out;
    };
  };
  core::GridRegistry::instance().add(std::move(def));
}

}  // namespace falvolt::bench::gesture
