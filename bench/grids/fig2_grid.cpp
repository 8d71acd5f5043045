// Fig. 2 — motivational case study: retraining accuracy as a function of
// a manually chosen, fixed threshold voltage.
//
// Reproduces: MNIST and DVS-Gesture classifiers, 30% and 60% faulty PEs
// (MSB sa1) on a 256x256 array, fault-aware pruning followed by
// retraining with V_th frozen at each value in {0.45, 0.5, 0.55, 0.7}.
// The paper's point: the best fixed V_th depends on the dataset AND the
// fault rate, and a wrong pick costs tens of accuracy points — which is
// what motivates learning V_th (FalVolt).
//
// Grid, scenario function and figure report, run by the fig2_vth_sweep
// binary and the sweep_fleet driver alike.

#include "bench_common.h"
#include "core/grid_registry.h"

namespace falvolt::bench::fig2 {

namespace {

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

void report(const common::CliFlags& cli, const core::ResultTable& results,
            io::CsvWriter& csv) {
  write_scenario_rows(csv, results);
  if (!results.complete()) return;
  std::vector<std::string> header = {"series"};
  for (const float v : vths()) {
    header.push_back(common::TextTable::format(v, 2));
  }
  common::TextTable table(header);
  for (const auto kind : kinds(cli)) {
    for (const double rate : rates()) {
      std::vector<double> row;
      for (const float vth : vths()) {
        row.push_back(
            results.get(cell_key(kind, rate, vth)).metrics.front().second);
      }
      table.row_labeled(std::string(core::dataset_name(kind)) + "@" +
                            common::TextTable::format(rate * 100, 0) + "%",
                        row, 1);
    }
  }
  std::printf("\nRetrained accuracy [%%] per fixed threshold voltage:\n");
  table.print();
}

}  // namespace

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
  def.label = "Fig. 2";
  def.csv_columns = {"dataset", "fault_rate_percent", "vth", "accuracy"};
  def.report = report;
  def.note =
      "\nExpected shape (paper): best V_th differs per dataset and fault "
      "rate; a bad fixed pick loses tens of points.\n";
  core::GridRegistry::instance().add(std::move(def));
}

}  // namespace falvolt::bench::fig2
