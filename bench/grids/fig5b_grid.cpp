// Fig. 5b — classification accuracy vs number of faulty PEs.
//
// Reproduces: worst-case (MSB stuck-at-1) faults in {0, 4, 8, 16, 32, 40,
// 48, 56, 64} randomly placed PEs of a 256x256 systolicSNN, unmitigated
// inference, averaged over several distinct fault maps (the paper runs 8
// iterations per point). Headline number: 8 faulty PEs — 0.012% of the
// array — already halves the accuracy.
//
// Grid, scenario function and figure report, run by the
// fig5b_fault_count binary and the sweep_fleet driver alike.

#include <memory>

#include "bench_common.h"
#include "core/grid_registry.h"
#include "core/mitigation.h"

namespace falvolt::bench::fig5b {

namespace {

const std::vector<int>& counts() {
  static const std::vector<int> kCounts = {0, 4, 8, 16, 32, 40, 48, 56, 64};
  return kCounts;
}

std::vector<core::DatasetKind> kinds(const common::CliFlags& cli) {
  return dataset_list(cli, {core::DatasetKind::kMnist,
                            core::DatasetKind::kNMnist,
                            core::DatasetKind::kDvsGesture});
}

int repeats(const common::CliFlags& cli) {
  return cli.get_int("repeats") > 0
             ? static_cast<int>(cli.get_int("repeats"))
             : (cli.get_bool("fast") ? 2 : 4);
}

std::string cell_key(core::DatasetKind kind, int count, int rep) {
  return std::string(core::dataset_name(kind)) + "/faulty=" +
         std::to_string(count) + "/rep=" + std::to_string(rep);
}

void report(const common::CliFlags& cli, const core::ResultTable& results,
            io::CsvWriter& csv) {
  if (!results.complete()) return;
  const systolic::ArrayConfig array = experiment_array(cli);
  const int reps = repeats(cli);
  std::vector<std::string> header = {"dataset"};
  for (const int c : counts()) header.push_back(std::to_string(c));
  common::TextTable table(header);

  for (const auto kind : kinds(cli)) {
    std::vector<double> row;
    for (const int count : counts()) {
      common::RunningStats acc;
      for (int rep = 0; rep < reps; ++rep) {
        acc.add(
            results.get(cell_key(kind, count, rep)).metrics.front().second);
      }
      row.push_back(acc.mean());
      csv.row({std::string(core::dataset_name(kind)), std::to_string(count),
               io::CsvWriter::format(100.0 * count / array.total_pes()),
               io::CsvWriter::format(acc.mean()),
               io::CsvWriter::format(acc.stddev())});
    }
    table.row_labeled(core::dataset_name(kind), row, 1);
  }
  std::printf("\nAccuracy [%%] vs number of faulty PEs (avg over %d "
              "fault maps):\n",
              reps);
  table.print();
}

}  // namespace

void register_grid() {
  core::GridDef def;
  def.name = "fig5b_fault_count";
  def.datasets = {core::DatasetKind::kMnist, core::DatasetKind::kNMnist,
                  core::DatasetKind::kDvsGesture};
  def.title =
      "Accuracy vs number of faulty PEs (MSB sa1 worst case, unmitigated "
      "inference)";
  def.add_flags = [](common::CliFlags& cli) {
    cli.add_int("eval-samples", 96, "test samples per evaluation");
  };
  def.scenarios = [](const common::CliFlags& cli) {
    std::vector<core::Scenario> scenarios;
    const int reps = repeats(cli);
    for (const auto kind : kinds(cli)) {
      for (const int count : counts()) {
        for (int rep = 0; rep < reps; ++rep) {
          core::Scenario s;
          s.key = cell_key(kind, count, rep);
          s.dataset = kind;
          s.fault_count = count;
          s.repeat = rep;
          s.fault_seed = 2000 + static_cast<std::uint64_t>(31 * count + rep);
          scenarios.push_back(s);
        }
      }
    }
    return scenarios;
  };
  def.scenario_fn = [](const common::CliFlags& cli,
                       const core::SweepContext& ctx) {
    const systolic::ArrayConfig array = experiment_array(cli);
    const fault::FaultSpec spec =
        fault::worst_case_spec(array.format.total_bits());
    const auto eval_sets = std::make_shared<EvalSets>(
        ctx, static_cast<int>(cli.get_int("eval-samples")));
    return [array, spec, eval_sets](const core::Scenario& s,
                                    const core::SweepContext& c) {
      snn::Network net = c.clone_network(s.dataset);
      common::Rng rng(s.fault_seed);
      const fault::FaultMap map = fault::random_fault_map(
          array.rows, array.cols, s.fault_count, spec, rng);
      const double acc = core::evaluate_with_faults(
          net, eval_sets->batch(s.dataset), array, map,
          systolic::SystolicGemmEngine::FaultHandling::kCorrupt);
      core::ScenarioResult out;
      out.metrics = {{"accuracy", acc}};
      return out;
    };
  };
  def.label = "Fig. 5b";
  def.csv_columns = {"dataset", "faulty_pes", "fault_rate_percent",
                     "accuracy", "stddev"};
  def.report = report;
  def.note =
      "\nExpected shape (paper): steep collapse by ~8 faulty PEs (0.012% "
      "of the array); DVS-Gesture lowest throughout.\n";
  core::GridRegistry::instance().add(std::move(def));
}

}  // namespace falvolt::bench::fig5b
