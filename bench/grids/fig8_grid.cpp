// Fig. 8 — convergence: accuracy vs retraining epoch, FaPIT vs FalVolt.
//
// Reproduces: 30% faulty PEs (MSB sa1, 256x256 array); per-epoch test
// accuracy of FaPIT (V_th = 1.0) and FalVolt. The paper's claim: FalVolt
// reaches the baseline-accuracy band in about half the epochs of FaPIT
// ("2x faster").
//
// Grid, scenario function and figure report, run by the fig8_convergence
// binary and the sweep_fleet driver alike. The report rebuilds the
// convergence summary from the per-epoch metrics ("epoch001", ...).

#include <cstdio>

#include "bench_common.h"
#include "core/grid_registry.h"

namespace falvolt::bench::fig8 {

namespace {

std::string epoch_metric(int epoch) {  // 1-based, zero-padded
  char buf[16];
  std::snprintf(buf, sizeof(buf), "epoch%03d", epoch);
  return buf;
}

const std::vector<std::string>& methods() {
  static const std::vector<std::string> kMethods = {"FaPIT", "FalVolt"};
  return kMethods;
}

std::vector<core::DatasetKind> kinds(const common::CliFlags& cli) {
  return dataset_list(cli, {core::DatasetKind::kMnist,
                            core::DatasetKind::kNMnist,
                            core::DatasetKind::kDvsGesture});
}

int horizon(const common::CliFlags& cli, core::DatasetKind kind) {
  // Long enough that the slower method also converges.
  return cli.get_int("epochs") > 0
             ? static_cast<int>(cli.get_int("epochs"))
             : 2 * core::default_retrain_epochs(kind, cli.get_bool("fast"));
}

std::string cell_key(core::DatasetKind kind, const std::string& method) {
  return std::string(core::dataset_name(kind)) + "/" + method;
}

void report(const common::CliFlags& cli, const core::ResultTable& results,
            io::CsvWriter& csv) {
  write_scenario_rows(csv, results);
  if (!results.complete()) return;
  const double target_drop = cli.get_double("target-drop");
  common::TextTable summary({"dataset", "FaPIT epochs-to-target",
                             "FalVolt epochs-to-target", "speedup"});
  for (const auto kind : kinds(cli)) {
    const core::ScenarioResult& fapit = results.get(cell_key(kind, "FaPIT"));
    const core::ScenarioResult& falvolt =
        results.get(cell_key(kind, "FalVolt"));
    const int epochs = horizon(cli, kind);

    // metrics[0] is "baseline", metrics[e] is epoch e (1-based) — the
    // scenario function writes them in exactly that order.
    const auto epoch_acc = [](const core::ScenarioResult& r, int e) {
      return r.metrics[static_cast<std::size_t>(e)].second;
    };
    common::TextTable curve({"epoch", "FaPIT", "FalVolt"});
    for (int e = 1; e <= epochs; ++e) {
      curve.row_labeled(std::to_string(e),
                        {epoch_acc(fapit, e), epoch_acc(falvolt, e)}, 1);
    }
    std::printf("\nAccuracy [%%] per retraining epoch — %s:\n",
                core::dataset_name(kind));
    curve.print();

    // Same contract as MitigationResult::epochs_to_reach: first 1-based
    // epoch at or above the target, -1 when never reached.
    const double target = fapit.metrics.front().second - target_drop;
    const auto epochs_to_reach = [&](const core::ScenarioResult& r) {
      for (int e = 1; e <= epochs; ++e) {
        if (epoch_acc(r, e) >= target) return e;
      }
      return -1;
    };
    const int e_fapit = epochs_to_reach(fapit);
    const int e_falvolt = epochs_to_reach(falvolt);
    const std::string speedup =
        (e_fapit > 0 && e_falvolt > 0)
            ? common::TextTable::format(
                  static_cast<double>(e_fapit) / e_falvolt, 2) + "x"
            : "n/a";
    summary.row({std::string(core::dataset_name(kind)),
                 e_fapit > 0 ? std::to_string(e_fapit) : ">horizon",
                 e_falvolt > 0 ? std::to_string(e_falvolt) : ">horizon",
                 speedup});
    std::printf("\n");
  }
  std::printf("Epochs to reach (baseline - %.1f) points:\n", target_drop);
  summary.print();
}

}  // namespace

void register_grid() {
  core::GridDef def;
  def.name = "fig8_convergence";
  def.datasets = {core::DatasetKind::kMnist, core::DatasetKind::kNMnist,
                  core::DatasetKind::kDvsGesture};
  def.title =
      "Accuracy vs retraining epochs at 30% faulty PEs (FaPIT vs FalVolt; "
      "the 2x-faster claim)";
  def.add_flags = [](common::CliFlags& cli) {
    cli.add_int("epochs", 0,
                "retraining epochs (0 = 2x per-dataset default)");
    cli.add_double("rate", 0.30, "fault rate (paper: 0.30)");
    cli.add_double("target-drop", 3.0,
                   "convergence target = baseline - this many points");
  };
  // --target-drop only moves the post-sweep epochs-to-target summary,
  // never a curve value: exempting it keeps the expensive retraining
  // cells cached while the convergence target is re-picked.
  def.aggregation_only = {"target-drop"};
  def.scenarios = [](const common::CliFlags& cli) {
    const double rate = cli.get_double("rate");
    std::vector<core::Scenario> scenarios;
    for (const auto kind : kinds(cli)) {
      for (const std::string& method : methods()) {
        core::Scenario s;
        s.key = cell_key(kind, method);
        s.tag = method;
        s.dataset = kind;
        s.fault_rate = rate;
        s.fault_seed = 7000;  // both methods retrain against the SAME map
        s.retrain = true;
        s.epochs = horizon(cli, kind);
        scenarios.push_back(s);
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
      cfg.eval_each_epoch = true;  // the whole point of this figure

      const core::MitigationResult r =
          s.tag == "FaPIT"
              ? core::run_fapit(net, map, wl.data.train, wl.data.test, cfg)
              : core::run_falvolt(net, map, wl.data.train, wl.data.test,
                                  cfg);

      core::ScenarioResult out;
      out.metrics = {{"baseline", wl.baseline_accuracy}};
      for (int e = 0; e < s.epochs; ++e) {
        const double acc =
            r.curve[static_cast<std::size_t>(e)].test_accuracy;
        out.metrics.emplace_back(epoch_metric(e + 1), acc);
        out.csv_rows.push_back(
            {std::string(core::dataset_name(s.dataset)), s.tag,
             std::to_string(e + 1), io::CsvWriter::format(acc)});
      }
      return out;
    };
  };
  def.label = "Fig. 8";
  def.csv_columns = {"dataset", "method", "epoch", "accuracy"};
  def.report = report;
  def.note =
      "\nExpected shape (paper): FalVolt converges in about half the "
      "epochs of FaPIT.\n";
  core::GridRegistry::instance().add(std::move(def));
}

}  // namespace falvolt::bench::fig8
