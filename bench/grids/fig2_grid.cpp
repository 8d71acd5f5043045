// Fig. 2 grid — retraining accuracy vs fixed threshold voltage at
// 30% / 60% faulty PEs. Grid + scenario function, shared between the
// fig2_vth_sweep main and the sweep_fleet driver.

#include "bench_common.h"
#include "core/grid_registry.h"
#include "grids/grids.h"

namespace falvolt::bench::fig2 {

const std::vector<float>& vths() {
  static const std::vector<float> kVths = {0.45f, 0.5f, 0.55f, 0.7f, 1.0f};
  return kVths;
}

const std::vector<double>& rates() {
  static const std::vector<double> kRates = {0.30, 0.60};
  return kRates;
}

std::vector<core::DatasetKind> kinds(const common::CliFlags& cli) {
  return dataset_list(
      cli, {core::DatasetKind::kMnist, core::DatasetKind::kDvsGesture});
}

int epochs(const common::CliFlags& cli, core::DatasetKind kind) {
  return retrain_epochs_flag(cli, kind);
}

std::string cell_key(core::DatasetKind kind, double rate, float vth) {
  return std::string(core::dataset_name(kind)) + "/rate=" +
         common::TextTable::format(rate * 100, 0) + "/vth=" +
         common::TextTable::format(vth, 2);
}

void register_grid() {
  core::GridDef def;
  def.name = "fig2_vth_sweep";
  def.datasets = {core::DatasetKind::kMnist, core::DatasetKind::kDvsGesture};
  def.title =
      "Retraining accuracy vs fixed threshold voltage at 30% / 60% faulty "
      "PEs (motivates FalVolt)";
  def.add_flags = [](common::CliFlags& cli) {
    cli.add_int("epochs", 0, "retraining epochs (0 = per-dataset default)");
  };
  def.scenarios = [](const common::CliFlags& cli) {
    std::vector<core::Scenario> scenarios;
    for (const auto kind : kinds(cli)) {
      const int cell_epochs = epochs(cli, kind);
      for (const double rate : rates()) {
        for (const float vth : vths()) {
          core::Scenario s;
          s.key = cell_key(kind, rate, vth);
          s.dataset = kind;
          s.vth = vth;
          s.fault_rate = rate;
          s.fault_seed = 4000 + static_cast<std::uint64_t>(rate * 100);
          s.retrain = true;
          s.epochs = cell_epochs;
          scenarios.push_back(s);
        }
      }
    }
    return scenarios;
  };
  def.scenario_fn = [](const common::CliFlags& cli,
                       const core::SweepContext&) {
    const systolic::ArrayConfig array = experiment_array(cli);
    return [array](const core::Scenario& s, const core::SweepContext& ctx) {
      const core::Workload& wl = ctx.workload(s.dataset);
      snn::Network net = ctx.clone_network(s.dataset);
      common::Rng rng(s.fault_seed);
      const fault::FaultMap map = fault::fault_map_at_rate(
          array.rows, array.cols, s.fault_rate,
          fault::worst_case_spec(array.format.total_bits()), rng);
      core::MitigationConfig cfg;
      cfg.array = array;
      cfg.retrain_epochs = s.epochs;
      cfg.eval_each_epoch = false;
      const core::MitigationResult r = core::run_fixed_vth_retraining(
          net, map, wl.data.train, wl.data.test, cfg,
          static_cast<float>(s.vth));

      core::ScenarioResult out;
      out.metrics = {{"accuracy", r.final_accuracy}};
      out.csv_rows = {{std::string(core::dataset_name(s.dataset)),
                       io::CsvWriter::format(s.fault_rate * 100),
                       io::CsvWriter::format(s.vth),
                       io::CsvWriter::format(r.final_accuracy)}};
      logf(out.log, "  %-15s rate=%2.0f%% vth=%.2f -> %.1f%%\n",
           core::dataset_name(s.dataset), s.fault_rate * 100, s.vth,
           r.final_accuracy);
      return out;
    };
  };
  core::GridRegistry::instance().add(std::move(def));
}

}  // namespace falvolt::bench::fig2
