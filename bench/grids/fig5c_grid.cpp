// Fig. 5c — classification accuracy vs systolic array size.
//
// Reproduces: 4 faulty PEs (MSB sa1) in arrays of 4x4 .. 256x256. Smaller
// arrays fold more weights onto each PE (higher reuse), so the same
// absolute number of faults does far more damage — the paper's
// array-reuse argument.
//
// Grid, scenario function and figure report, run by the
// fig5c_array_size binary and the sweep_fleet driver alike.

#include <memory>

#include "bench_common.h"
#include "core/grid_registry.h"
#include "core/mitigation.h"
#include "systolic/cost_model.h"

namespace falvolt::bench::fig5c {

namespace {

// Relative eval cost of one cell at array size `n`, from the analytical
// cost model: smaller arrays tile the same layer GEMM many more times,
// so a 4x4 cell runs orders of magnitude longer than a 256x256 one.
// Normalized so the 64x64 default costs ~1 (the fleet-wide eval unit);
// feeds Scenario::cost_hint, which is scheduling-only and never enters
// a fingerprint.
double eval_cost(int n) {
  const auto latency = [](int size) {
    systolic::ArrayConfig array;
    array.rows = array.cols = size;
    // Representative hidden-layer GEMM of the CPU-scaled networks.
    return systolic::estimate_gemm(array, 64, 288, 128, 0.3).latency_us;
  };
  static const double kReference = latency(64);
  return latency(n) / kReference;
}

const std::vector<int>& sizes() {
  static const std::vector<int> kSizes = {4, 8, 16, 32, 64, 256};
  return kSizes;
}

std::vector<core::DatasetKind> kinds(const common::CliFlags& cli) {
  return dataset_list(cli, {core::DatasetKind::kMnist,
                            core::DatasetKind::kNMnist,
                            core::DatasetKind::kDvsGesture});
}

int repeats(const common::CliFlags& cli) {
  return cli.get_int("repeats") > 0
             ? static_cast<int>(cli.get_int("repeats"))
             : (cli.get_bool("fast") ? 2 : 3);
}

std::string cell_key(core::DatasetKind kind, int array_size, int rep) {
  return std::string(core::dataset_name(kind)) + "/array=" +
         std::to_string(array_size) + "/rep=" + std::to_string(rep);
}

void report(const common::CliFlags& cli, const core::ResultTable& results,
            io::CsvWriter& csv) {
  if (!results.complete()) return;
  const int reps = repeats(cli);
  std::vector<std::string> header = {"dataset"};
  for (const int s : sizes()) {
    header.push_back(std::to_string(s * s));  // paper plots total PEs
  }
  common::TextTable table(header);

  for (const auto kind : kinds(cli)) {
    std::vector<double> row;
    for (const int n : sizes()) {
      common::RunningStats acc;
      for (int rep = 0; rep < reps; ++rep) {
        acc.add(results.get(cell_key(kind, n, rep)).metrics.front().second);
      }
      row.push_back(acc.mean());
      csv.row({std::string(core::dataset_name(kind)),
               std::to_string(n) + "x" + std::to_string(n),
               std::to_string(n * n), io::CsvWriter::format(acc.mean()),
               io::CsvWriter::format(acc.stddev())});
    }
    table.row_labeled(core::dataset_name(kind), row, 1);
  }
  std::printf("\nAccuracy [%%] vs total number of PEs (%lld faulty PEs, "
              "avg over %d maps):\n",
              cli.get_int("faulty-pes"), reps);
  table.print();
}

}  // namespace

void register_grid() {
  core::GridDef def;
  def.name = "fig5c_array_size";
  def.datasets = {core::DatasetKind::kMnist, core::DatasetKind::kNMnist,
                  core::DatasetKind::kDvsGesture};
  def.title =
      "Accuracy vs total array size at a fixed number of faulty PEs (MSB "
      "sa1, unmitigated)";
  def.add_flags = [](common::CliFlags& cli) {
    cli.add_int("faulty-pes", 4, "number of faulty PEs (paper: 4)");
    cli.add_int("eval-samples", 96, "test samples per evaluation");
  };
  def.scenarios = [](const common::CliFlags& cli) {
    const int reps = repeats(cli);
    const int n_faulty = static_cast<int>(cli.get_int("faulty-pes"));
    std::vector<core::Scenario> scenarios;
    for (const auto kind : kinds(cli)) {
      for (const int n : sizes()) {
        for (int rep = 0; rep < reps; ++rep) {
          core::Scenario s;
          s.key = cell_key(kind, n, rep);
          s.dataset = kind;
          s.array_size = n;
          s.fault_count = n_faulty;
          s.repeat = rep;
          s.fault_seed = 3000 + static_cast<std::uint64_t>(7 * n + rep);
          s.cost_hint = eval_cost(n);
          scenarios.push_back(s);
        }
      }
    }
    return scenarios;
  };
  def.scenario_fn = [](const common::CliFlags& cli,
                       const core::SweepContext& ctx) {
    const auto eval_sets = std::make_shared<EvalSets>(
        ctx, static_cast<int>(cli.get_int("eval-samples")));
    return [eval_sets](const core::Scenario& s, const core::SweepContext& c) {
      snn::Network net = c.clone_network(s.dataset);
      systolic::ArrayConfig array;
      array.rows = array.cols = s.array_size;
      const fault::FaultSpec spec =
          fault::worst_case_spec(array.format.total_bits());
      common::Rng rng(s.fault_seed);
      const fault::FaultMap map = fault::random_fault_map(
          s.array_size, s.array_size, s.fault_count, spec, rng);
      const double acc = core::evaluate_with_faults(
          net, eval_sets->batch(s.dataset), array, map,
          systolic::SystolicGemmEngine::FaultHandling::kCorrupt);
      core::ScenarioResult out;
      out.metrics = {{"accuracy", acc}};
      return out;
    };
  };
  def.label = "Fig. 5c";
  def.csv_columns = {"dataset", "array", "total_pes", "accuracy", "stddev"};
  def.report = report;
  def.note =
      "\nExpected shape (paper): small arrays suffer far more from the "
      "same absolute fault count (array reuse).\n";
  core::GridRegistry::instance().add(std::move(def));
}

}  // namespace falvolt::bench::fig5c
