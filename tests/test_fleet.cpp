// FleetRunner (cross-bench work-stealing sweeps), the GridRegistry the
// figure benches publish their grids through, and the provenance block
// the record codec carries for fleet debugging.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "bench_common.h"
#include "common/version.h"
#include "core/grid_registry.h"
#include "core/sweep.h"
#include "data/synthetic_mnist.h"
#include "data/synthetic_nmnist.h"
#include "grids/grids.h"
#include "io/csv.h"
#include "obs/metrics.h"
#include "store/fingerprint.h"
#include "store/result_store.h"

namespace fs = std::filesystem;

namespace falvolt::core {
namespace {

std::vector<Scenario> grid(const std::string& prefix, int n) {
  std::vector<Scenario> scenarios;
  for (int i = 0; i < n; ++i) {
    Scenario s;
    s.key = prefix + "=" + std::to_string(i);
    s.fault_count = i;
    scenarios.push_back(s);
  }
  return scenarios;
}

std::vector<Scenario> retrain_grid(const std::string& prefix, int n,
                                   int epochs) {
  std::vector<Scenario> scenarios = grid(prefix, n);
  for (Scenario& s : scenarios) {
    s.retrain = true;
    s.epochs = epochs;
  }
  return scenarios;
}

SweepStoreOptions store_opts(const std::string& dir,
                             const std::string& bench) {
  SweepStoreOptions st;
  st.dir = dir;
  st.bench = bench;
  st.config = {{"epochs", "4"}};
  return st;
}

// The grids a figure binary runs through bench::run_figure.
const std::vector<std::string> kFigureGrids = {
    "fig2_vth_sweep",  "fig5a_bit_position", "fig5b_fault_count",
    "fig5c_array_size", "fig6_vth_layers",   "fig7_mitigation",
    "fig8_convergence", "ablation_falvolt"};

ScenarioFn counting_fn(std::atomic<int>& computed) {
  return [&computed](const Scenario& s, const SweepContext&) {
    ++computed;
    ScenarioResult out;
    out.metrics = {{"value", 10.0 * static_cast<double>(s.fault_count)}};
    out.log = "log " + s.key + "\n";
    return out;
  };
}

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "falvolt_fleet_test";
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  FleetRunner fleet(int workers) {
    WorkloadOptions opts;
    opts.sweep_parallel = workers;
    FleetRunner f(opts);
    f.set_prepare_baselines(false);
    return f;
  }

  std::string dir_;
};

TEST_F(FleetTest, RunsSeveralGridsAgainstOneStoreInterchangeably) {
  std::atomic<int> computed{0};
  FleetRunner cold = fleet(2);
  cold.add_grid({store_opts(dir_, "bench_a"), grid("a", 4),
                 counting_fn(computed)});
  cold.add_grid({store_opts(dir_, "bench_b"), grid("b", 3),
                 counting_fn(computed)});
  const std::vector<ResultTable> tables = cold.run();
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(computed.load(), 7);
  EXPECT_EQ(tables[0].computed_cells(), 4u);
  EXPECT_EQ(tables[1].computed_cells(), 3u);
  EXPECT_TRUE(tables[0].complete());

  // Warm fleet re-run: everything replays.
  FleetRunner warm = fleet(2);
  warm.add_grid({store_opts(dir_, "bench_a"), grid("a", 4),
                 counting_fn(computed)});
  warm.add_grid({store_opts(dir_, "bench_b"), grid("b", 3),
                 counting_fn(computed)});
  const std::vector<ResultTable> warmed = warm.run();
  EXPECT_EQ(computed.load(), 7);
  EXPECT_EQ(warmed[0].cached_cells(), 4u);
  EXPECT_EQ(warmed[1].cached_cells(), 3u);
  EXPECT_EQ(warmed[0].to_csv(), tables[0].to_csv());
  EXPECT_EQ(warmed[1].to_csv(), tables[1].to_csv());

  // Interchangeability with per-bench runs: a standalone one-grid run
  // (what a figure bench does) against the fleet store replays the
  // fleet's cells — and its table is byte-identical to a cold standalone
  // run in a private store (the fleet computes values, it never changes
  // them).
  FleetRunner solo = fleet(1);
  solo.add_grid({store_opts(dir_, "bench_a"), grid("a", 4),
                 counting_fn(computed)});
  const ResultTable replayed = std::move(solo.run().front());
  EXPECT_EQ(computed.load(), 7);
  EXPECT_EQ(replayed.computed_cells(), 0u);

  FleetRunner standalone = fleet(1);
  standalone.add_grid({store_opts(dir_ + "_solo", "bench_a"), grid("a", 4),
                       counting_fn(computed)});
  const ResultTable reference = std::move(standalone.run().front());
  EXPECT_EQ(computed.load(), 11);
  EXPECT_EQ(replayed.to_csv(), reference.to_csv());
  fs::remove_all(dir_ + "_solo");
}

// Cells of DIFFERENT grids run concurrently from one work queue: with 4
// workers over two 2-cell grids, all 4 cells must be in flight at once
// (each cell blocks until it sees full concurrency, with a timeout so a
// regression fails rather than hangs).
TEST_F(FleetTest, WorkersStealAcrossGrids) {
  std::atomic<int> in_flight{0};
  std::atomic<int> high_water{0};
  const auto blocking = [&](const Scenario&, const SweepContext&) {
    const int now = in_flight.fetch_add(1) + 1;
    int seen = high_water.load();
    while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (high_water.load() < 4 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    in_flight.fetch_sub(1);
    return ScenarioResult{};
  };
  FleetRunner f = fleet(4);
  f.add_grid({store_opts(dir_, "bench_a"), grid("a", 2), blocking});
  f.add_grid({store_opts(dir_, "bench_b"), grid("b", 2), blocking});
  f.run();
  EXPECT_EQ(high_water.load(), 4)
      << "cells of both grids must share one worker pool";
}

// ------------------------------------------------- cost-aware scheduling

TEST(ScenarioCost, DefaultsScaleWithRetrainEpochsAndHintWins) {
  Scenario eval;
  EXPECT_DOUBLE_EQ(scenario_cost_estimate(eval), 1.0);
  Scenario retrain;
  retrain.retrain = true;
  retrain.epochs = 4;
  EXPECT_DOUBLE_EQ(scenario_cost_estimate(retrain),
                   4.0 * kRetrainCostPerEpoch);
  Scenario retrain_no_epochs;
  retrain_no_epochs.retrain = true;  // epochs unset still beats an eval
  EXPECT_DOUBLE_EQ(scenario_cost_estimate(retrain_no_epochs),
                   kRetrainCostPerEpoch);
  Scenario hinted = retrain;
  hinted.cost_hint = 2.5;
  EXPECT_DOUBLE_EQ(scenario_cost_estimate(hinted), 2.5);
}

TEST(ScenarioCost, CostHintNeverEntersFingerprints) {
  SweepStoreOptions st;
  st.bench = "bench_a";
  Scenario a;
  a.key = "x=0";
  Scenario b = a;
  b.cost_hint = 512.0;
  EXPECT_EQ(fingerprint_cell(st, WorkloadOptions{}, a),
            fingerprint_cell(st, WorkloadOptions{}, b));
}

// With one worker the claim order IS the queue order: the retrain
// grid's cells run first even though the eval grid was added first.
TEST_F(FleetTest, CostOrderedQueueClaimsExpensiveCellsFirst) {
  std::vector<std::string> order;
  std::mutex mu;
  const auto recording = [&](const Scenario& s, const SweepContext&) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(s.key);
    return ScenarioResult{};
  };
  FleetRunner f = fleet(1);
  f.add_grid({store_opts(dir_, "bench_eval"), grid("e", 3), recording});
  f.add_grid({store_opts(dir_, "bench_retrain"), retrain_grid("r", 2, 4),
              recording});
  f.run();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], "r=0");
  EXPECT_EQ(order[1], "r=1");
}

// Mixed retrain/eval fleet at full concurrency: with 2 workers both
// retrain cells must be in flight together BEFORE any eval cell starts
// (the whole point of the cost order — the expensive tail overlaps the
// cheap cells instead of following them).
TEST_F(FleetTest, MixedFleetRunsRetrainCellsAtFullConcurrencyFirst) {
  std::atomic<int> retrain_in_flight{0};
  std::atomic<int> retrain_high_water{0};
  std::atomic<int> evals_before_retrains{0};
  const auto fn = [&](const Scenario& s, const SweepContext&) {
    if (s.retrain) {
      const int now = retrain_in_flight.fetch_add(1) + 1;
      int seen = retrain_high_water.load();
      while (now > seen &&
             !retrain_high_water.compare_exchange_weak(seen, now)) {
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (retrain_high_water.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      retrain_in_flight.fetch_sub(1);
    } else if (retrain_high_water.load() < 2) {
      evals_before_retrains.fetch_add(1);
    }
    return ScenarioResult{};
  };
  FleetRunner f = fleet(2);
  f.add_grid({store_opts(dir_, "bench_eval"), grid("e", 4), fn});
  f.add_grid({store_opts(dir_, "bench_retrain"), retrain_grid("r", 2, 4),
              fn});
  f.run();
  EXPECT_EQ(retrain_high_water.load(), 2)
      << "both retrain cells must overlap";
  EXPECT_EQ(evals_before_retrains.load(), 0)
      << "no eval cell may start before the retrain cells are claimed";
}

// Claim order is pure execution order: a 1-worker fleet (cells strictly
// in queue order) and a 2-worker fleet (cells interleaved across
// workers) emit byte-identical tables, and a warm re-run against the
// 2-worker fleet's store computes nothing.
TEST_F(FleetTest, WorkerCountNeverChangesTablesAndWarmRunComputesNothing) {
  std::atomic<int> computed{0};
  const auto run_fleet = [&](int workers, const std::string& dir) {
    FleetRunner f = fleet(workers);
    f.add_grid({store_opts(dir, "bench_eval"), grid("e", 4),
                counting_fn(computed)});
    f.add_grid({store_opts(dir, "bench_retrain"), retrain_grid("r", 3, 2),
                counting_fn(computed)});
    return f.run();
  };
  const std::vector<ResultTable> two = run_fleet(2, dir_);
  const std::vector<ResultTable> one = run_fleet(1, dir_ + "_serial");
  ASSERT_EQ(two.size(), one.size());
  for (std::size_t g = 0; g < two.size(); ++g) {
    EXPECT_EQ(two[g].to_csv(), one[g].to_csv());
  }
  EXPECT_EQ(computed.load(), 14);

  const std::vector<ResultTable> warm = run_fleet(2, dir_);
  EXPECT_EQ(computed.load(), 14);
  for (std::size_t g = 0; g < warm.size(); ++g) {
    EXPECT_EQ(warm[g].computed_cells(), 0u);
    EXPECT_EQ(warm[g].to_csv(), two[g].to_csv());
  }
  fs::remove_all(dir_ + "_serial");
}

TEST_F(FleetTest, WorkerStatsAccountForEveryComputedCell) {
  std::atomic<int> computed{0};
  FleetRunner f = fleet(2);
  f.add_grid({store_opts(dir_, "bench_a"), grid("a", 5),
              counting_fn(computed)});
  f.add_grid({store_opts(dir_, "bench_b"), grid("b", 2),
              counting_fn(computed)});
  EXPECT_TRUE(f.worker_stats().empty()) << "no stats before any run";
  f.run();
  ASSERT_EQ(f.worker_stats().size(), 2u);
  std::size_t cells = 0;
  for (const WorkerStats& w : f.worker_stats()) {
    cells += w.cells;
    EXPECT_GE(w.busy_seconds, 0.0);
  }
  EXPECT_EQ(cells, 7u);

  // A fully warm fleet claims nothing — stats show zero cells.
  FleetRunner warm = fleet(2);
  warm.add_grid({store_opts(dir_, "bench_a"), grid("a", 5),
                 counting_fn(computed)});
  warm.add_grid({store_opts(dir_, "bench_b"), grid("b", 2),
                 counting_fn(computed)});
  warm.run();
  EXPECT_EQ(computed.load(), 7);
  std::size_t warm_cells = 0;
  for (const WorkerStats& w : warm.worker_stats()) warm_cells += w.cells;
  EXPECT_EQ(warm_cells, 0u);
}

TEST_F(FleetTest, GridErrorsFailTheFleetWithBenchPrefix) {
  FleetRunner f = fleet(1);
  std::atomic<int> computed{0};
  f.add_grid({store_opts(dir_, "bench_a"), grid("a", 2),
              counting_fn(computed)});
  f.add_grid({store_opts(dir_, "bench_b"), grid("b", 2),
              [](const Scenario& s, const SweepContext&) -> ScenarioResult {
                throw std::runtime_error("boom in " + s.key);
              }});
  try {
    f.run();
    FAIL() << "expected the fleet to fail";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bench_b: b=0"), std::string::npos)
        << e.what();
  }
}

TEST_F(FleetTest, ProvenanceIsStampedStoredAndReplayed) {
  std::atomic<int> computed{0};
  FleetRunner cold = fleet(1);
  cold.add_grid({store_opts(dir_, "bench_a"), grid("a", 2),
                 counting_fn(computed)});
  const ResultTable t_cold = std::move(cold.run().front());
  for (std::size_t i = 0; i < t_cold.size(); ++i) {
    const Provenance& p = t_cold.at(i).provenance;
    EXPECT_FALSE(p.host.empty());
    EXPECT_EQ(p.version, kFalvoltVersion);
    EXPECT_GT(p.unix_time, 0u);
    EXPECT_EQ(p.store_epoch, store::kStoreFormatEpoch);
  }
  FleetRunner warm = fleet(1);
  warm.add_grid({store_opts(dir_, "bench_a"), grid("a", 2),
                 counting_fn(computed)});
  const ResultTable t_warm = std::move(warm.run().front());
  EXPECT_EQ(computed.load(), 2);
  for (std::size_t i = 0; i < t_cold.size(); ++i) {
    EXPECT_EQ(t_cold.at(i).provenance.host, t_warm.at(i).provenance.host);
    EXPECT_EQ(t_cold.at(i).provenance.version,
              t_warm.at(i).provenance.version);
    EXPECT_EQ(t_cold.at(i).provenance.unix_time,
              t_warm.at(i).provenance.unix_time);
    EXPECT_EQ(t_cold.at(i).provenance.store_epoch,
              t_warm.at(i).provenance.store_epoch);
  }
}

// The concurrent baseline phase from a warm cache, so that it runs under
// ThreadSanitizer without training: the cache holds untrained networks,
// two datasets load side by side at --threads 4, and the run commits
// exactly what the serial phase at --threads 1 commits.
TEST_F(FleetTest, ConcurrentBaselinePhaseFromWarmCacheMatchesSerial) {
  const std::string cache = dir_ + "/cache";
  fs::create_directories(cache);
  data::SyntheticMnistConfig mnist;
  mnist.train_size = mnist.test_size = 10;
  data::SyntheticNMnistConfig nmnist;
  nmnist.train_size = nmnist.test_size = 10;
  const std::vector<std::pair<DatasetKind, data::DatasetSplit>> shapes = {
      {DatasetKind::kMnist, data::make_synthetic_mnist(mnist)},
      {DatasetKind::kNMnist, data::make_synthetic_nmnist(nmnist)}};
  std::vector<Scenario> scenarios;
  for (const auto& [kind, split] : shapes) {
    snn::Network net = build_network(kind, split.train, 7);
    save_params(net, baseline_cache_file(cache, kind, /*fast=*/true, 7));
    Scenario s;
    s.key = dataset_name(kind);
    s.dataset = kind;
    scenarios.push_back(s);
  }

  const auto run_at = [&](int threads, std::vector<std::string>& calls) {
    WorkloadOptions opts;
    opts.fast = true;
    opts.threads = threads;
    opts.cache_dir = cache;
    FleetRunner f(opts);
    f.set_on_baseline([&calls](const Workload& w) {
      calls.push_back(std::string(dataset_name(w.kind)) + " " +
                      std::to_string(w.baseline_accuracy));
    });
    f.add_grid({store_opts("", "baselines"), scenarios,
                [](const Scenario& s, const SweepContext& ctx) {
                  ScenarioResult r;
                  r.metrics = {
                      {"accuracy", ctx.workload(s.dataset).baseline_accuracy}};
                  return r;
                }});
    const std::string csv = f.run().front().to_csv();
    EXPECT_EQ(f.context().kinds(),
              (std::vector<DatasetKind>{DatasetKind::kMnist,
                                        DatasetKind::kNMnist}));
    EXPECT_GT(f.baseline_seconds(), 0.0);
    return csv;
  };
  const obs::Counter& dispatch = obs::counter("pool.parallel_for.count");
  std::vector<std::string> serial_calls, concurrent_calls;
  const std::string serial = run_at(1, serial_calls);
  const std::uint64_t before = dispatch.value();
  const std::string concurrent = run_at(4, concurrent_calls);
  EXPECT_EQ(dispatch.value(), before);  // every GEMM ran inline
  EXPECT_EQ(concurrent, serial);
  ASSERT_EQ(serial_calls.size(), 2u);
  EXPECT_EQ(serial_calls[0].rfind("MNIST ", 0), 0u);
  EXPECT_EQ(concurrent_calls, serial_calls);
}

TEST(FleetRunnerApi, RejectsEmptyFleetsAndBadGrids) {
  FleetRunner f{WorkloadOptions{}};
  EXPECT_THROW(f.run(), std::logic_error);
  EXPECT_THROW(f.add_grid({SweepStoreOptions{}, {}, nullptr}),
               std::invalid_argument);
  SweepStoreOptions bad;
  bad.shard_index = 3;
  bad.shard_count = 2;
  EXPECT_THROW(
      f.add_grid({bad, {}, [](const Scenario&, const SweepContext&) {
                    return ScenarioResult{};
                  }}),
      std::invalid_argument);
}

// ------------------------------------------------------------ registry

TEST(GridRegistry, AllGridsRegisterAndBuild) {
  bench::register_all_grids();
  bench::register_all_grids();  // idempotent
  const GridRegistry& reg = GridRegistry::instance();
  // Seven figure benches + the design-choice ablation + the two
  // example-derived workloads: everything the repo can express runs
  // through one fleet queue.
  const std::vector<std::string> expected = {
      "fig2_vth_sweep",   "fig5a_bit_position", "fig5b_fault_count",
      "fig5c_array_size", "fig6_vth_layers",    "fig7_mitigation",
      "fig8_convergence", "ablation_falvolt",   "chip_salvage_triage",
      "gesture_pipeline"};
  ASSERT_GE(reg.size(), 9u) << "fleet must cover 9+ grids";
  for (const std::string& name : expected) {
    ASSERT_NE(reg.find(name), nullptr) << name;
    EXPECT_FALSE(reg.get(name).datasets.empty())
        << name << " must declare its dataset axis so the fleet driver "
        << "can skip it under a foreign --datasets filter";
  }

  // Every grid builds a non-empty, unique-keyed scenario list from its
  // default flags, and its scenario-fn factory is constructible without
  // touching any workload (lazy-baseline contract).
  FleetRunner probe{WorkloadOptions{}};
  for (const std::string& name : expected) {
    const GridDef& def = reg.get(name);
    common::CliFlags cli(def.name);
    bench::add_common_flags(cli);
    def.add_flags(cli);
    const std::vector<Scenario> scenarios = def.scenarios(cli);
    ASSERT_FALSE(scenarios.empty()) << name;
    std::set<std::string> keys;
    for (const Scenario& s : scenarios) {
      EXPECT_TRUE(keys.insert(s.key).second)
          << name << " duplicate key " << s.key;
      EXPECT_GT(scenario_cost_estimate(s), 0.0) << name << " " << s.key;
    }
    EXPECT_TRUE(
        static_cast<bool>(def.scenario_fn(cli, probe.context())))
        << name;

    // The figure grids carry their whole presentation; the
    // example-derived grids, which no figure binary shows, carry none.
    const bool figure = std::find(kFigureGrids.begin(), kFigureGrids.end(),
                                  name) != kFigureGrids.end();
    EXPECT_EQ(!def.label.empty(), figure) << name;
    EXPECT_EQ(!def.csv_columns.empty(), figure) << name;
    EXPECT_EQ(static_cast<bool>(def.report), figure) << name;
    EXPECT_EQ(!def.note.empty(), figure) << name;
  }

  // Spot-check the cost tagging the scheduler depends on: fig5c's
  // cost-model hints grow as the array shrinks (more tiles per GEMM),
  // and the gesture grid's falvolt arm dwarfs its unmitigated arm.
  {
    common::CliFlags cli("fig5c_array_size");
    bench::add_common_flags(cli);
    reg.get("fig5c_array_size").add_flags(cli);
    const std::vector<Scenario> scenarios =
        reg.get("fig5c_array_size").scenarios(cli);
    double cost4 = 0.0, cost256 = 0.0;
    for (const Scenario& s : scenarios) {
      if (s.array_size == 4) cost4 = scenario_cost_estimate(s);
      if (s.array_size == 256) cost256 = scenario_cost_estimate(s);
    }
    EXPECT_GT(cost4, cost256);
  }
  {
    common::CliFlags cli("gesture_pipeline");
    bench::add_common_flags(cli);
    reg.get("gesture_pipeline").add_flags(cli);
    for (const Scenario& s : reg.get("gesture_pipeline").scenarios(cli)) {
      if (s.tag == "falvolt") {
        EXPECT_GE(scenario_cost_estimate(s), kRetrainCostPerEpoch);
      } else {
        EXPECT_DOUBLE_EQ(scenario_cost_estimate(s), 1.0);
      }
    }
  }
}

// A defect rate (or array) small enough that the per-die defect ceiling
// truncates to zero must still build — a defective die then carries the
// minimum one defect instead of tripping Rng::uniform_int(0).
TEST(GridRegistry, ChipDefectsGuardDegenerateCeilings) {
  for (int chip = 0; chip < 8; ++chip) {
    EXPECT_GE(bench::chip_salvage::chip_defects(chip, 0.0, 64 * 64), 0);
    EXPECT_GE(bench::chip_salvage::chip_defects(chip, 0.0001, 64 * 64), 0);
    EXPECT_GE(bench::chip_salvage::chip_defects(chip, 0.18, 4), 0);
  }
}

TEST(GridRegistry, LookupAndValidation) {
  bench::register_all_grids();
  GridRegistry& reg = GridRegistry::instance();
  EXPECT_EQ(reg.find("no_such_grid"), nullptr);
  EXPECT_THROW(reg.get("no_such_grid"), std::out_of_range);

  GridDef dup;
  dup.name = "fig5b_fault_count";
  dup.add_flags = [](common::CliFlags&) {};
  dup.scenarios = [](const common::CliFlags&) {
    return std::vector<Scenario>{};
  };
  dup.scenario_fn = [](const common::CliFlags&, const SweepContext&) {
    return ScenarioFn{};
  };
  EXPECT_THROW(reg.add(std::move(dup)), std::logic_error);

  GridDef incomplete;
  incomplete.name = "incomplete";
  EXPECT_THROW(reg.add(std::move(incomplete)), std::logic_error);

  // A figure presentation is all or nothing: a label without a report
  // would give run_figure a banner and no table.
  GridDef half_figure;
  half_figure.name = "half_figure";
  half_figure.add_flags = [](common::CliFlags&) {};
  half_figure.scenarios = [](const common::CliFlags&) {
    return std::vector<Scenario>{};
  };
  half_figure.scenario_fn = [](const common::CliFlags&, const SweepContext&) {
    return ScenarioFn{};
  };
  half_figure.label = "Fig. X";
  half_figure.csv_columns = {"x"};
  EXPECT_THROW(reg.add(std::move(half_figure)), std::logic_error);
  EXPECT_EQ(reg.find("half_figure"), nullptr);
}

// One figure grid's flags, shrunk to a seconds-long MNIST sweep into
// `store` (optionally one shard of it).
common::CliFlags small_figure_flags(const GridDef& def,
                                    const std::string& store,
                                    const std::string& shard) {
  common::CliFlags cli(def.name);
  bench::add_common_flags(cli);
  def.add_flags(cli);
  std::vector<std::string> args = {def.name,  "--fast",    "true",
                                   "--datasets", "mnist",  "--repeats",
                                   "1",       "--store",   store};
  if (!shard.empty()) args.insert(args.end(), {"--shard", shard});
  for (const auto& [name, value] : cli.items()) {
    if (name == "epochs") args.insert(args.end(), {"--epochs", "1"});
    if (name == "eval-samples") {
      args.insert(args.end(), {"--eval-samples", "8"});
    }
  }
  std::vector<const char*> argv;
  for (const std::string& a : args) argv.push_back(a.c_str());
  cli.parse(static_cast<int>(argv.size()), argv.data());
  return cli;
}

// Every figure report runs on real tables of its grid: the eight figure
// grids sweep as one fleet, first as shard 0 of 2 and then whole against
// the same store (which replays shard 0's cells, so each cell is
// computed once). A report must not throw on the shard's partial table,
// and on the complete table it must write its declared header and at
// least one row.
TEST(FigureReports, EveryReportWritesItsCsvFromFullAndPartialTables) {
  bench::register_all_grids();
  const GridRegistry& reg = GridRegistry::instance();
  const std::string dir = ::testing::TempDir() + "falvolt_figure_reports";
  fs::remove_all(dir);
  fs::create_directories(dir + "/cache");
  // An untrained MNIST baseline in the cache: the reports need real
  // tables, not accurate ones, and skipping baseline training halves the
  // run.
  {
    data::SyntheticMnistConfig shape;
    shape.train_size = shape.test_size = 10;
    snn::Network net = build_network(
        DatasetKind::kMnist, data::make_synthetic_mnist(shape).train, 7);
    save_params(net, baseline_cache_file(dir + "/cache", DatasetKind::kMnist,
                                         /*fast=*/true, 7));
  }

  struct Sweep {
    std::vector<common::CliFlags> clis;
    std::vector<ResultTable> tables;
  };
  const auto sweep = [&](const std::string& shard) {
    Sweep out;
    for (const std::string& name : kFigureGrids) {
      out.clis.push_back(
          small_figure_flags(reg.get(name), dir + "/store", shard));
    }
    WorkloadOptions opts = bench::workload_options(out.clis.front());
    opts.cache_dir = dir + "/cache";
    FleetRunner runner(opts);
    for (std::size_t g = 0; g < kFigureGrids.size(); ++g) {
      const GridDef& def = reg.get(kFigureGrids[g]);
      runner.add_grid(
          {bench::store_options(out.clis[g], def.name, def.aggregation_only),
           def.scenarios(out.clis[g]),
           def.scenario_fn(out.clis[g], runner.context())});
    }
    out.tables = runner.run();
    return out;
  };

  const Sweep partial = sweep("0/2");
  const Sweep full = sweep("");
  for (std::size_t g = 0; g < kFigureGrids.size(); ++g) {
    const GridDef& def = reg.get(kFigureGrids[g]);
    EXPECT_FALSE(partial.tables[g].complete()) << def.name;
    {
      io::CsvWriter csv(dir + "/" + def.name + ".partial.csv",
                        def.csv_columns);
      EXPECT_NO_THROW(def.report(partial.clis[g], partial.tables[g], csv))
          << def.name;
    }

    ASSERT_TRUE(full.tables[g].complete()) << def.name;
    const std::string path = dir + "/" + def.name + ".csv";
    io::CsvWriter csv(path, def.csv_columns);
    def.report(full.clis[g], full.tables[g], csv);
    csv.close();
    std::ifstream in(path);
    std::string header, row;
    ASSERT_TRUE(std::getline(in, header)) << def.name;
    std::string columns;
    for (const std::string& c : def.csv_columns) {
      columns += (columns.empty() ? "" : ",") + c;
    }
    EXPECT_EQ(header, columns) << def.name;
    EXPECT_TRUE(std::getline(in, row) && !row.empty())
        << def.name << " wrote no CSV row";
  }
  fs::remove_all(dir);
}

// The figure driver probes its sweep-summary path before the sweep
// without creating anything there: an unwritable path fails before any
// work, and a run that dies after the probe leaves no file at the path.
TEST(BenchProbes, SweepJsonProbeCreatesNoFile) {
  const fs::path dir = fs::path(::testing::TempDir()) / "falvolt_probe_test";
  fs::remove_all(dir);
  fs::create_directories(dir / "json");
  const fs::path cwd = fs::current_path();
  fs::current_path(dir);  // the driver writes its figure CSV to the CWD
  const auto run = [&](const fs::path& summary) {
    const std::string store = (dir / "store").string();
    const std::string missing = (dir / "no_such_store").string();
    const std::string json = summary.string();
    const char* argv[] = {"fig5b_fault_count", "--fast",        "--datasets",
                          "mnist",             "--store",       store.c_str(),
                          "--substituters",    missing.c_str(), "--sweep-json",
                          json.c_str()};
    return bench::run_figure(static_cast<int>(std::size(argv)), argv,
                             "fig5b_fault_count");
  };
  // The missing substituter fails the sweep as it opens the store: after
  // the probe, before any cell.
  EXPECT_THROW(run(dir / "json" / "summary.json"), std::invalid_argument);
  EXPECT_TRUE(fs::is_empty(dir / "json"));
  EXPECT_THROW(run(dir / "missing" / "summary.json"), std::runtime_error);
  EXPECT_FALSE(fs::exists(dir / "missing"));
  fs::current_path(cwd);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace falvolt::core
