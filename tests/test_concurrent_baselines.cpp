// FleetRunner's baseline phase with several uncached datasets: at
// --threads > 1 the baselines train side by side (one thread per
// dataset, GEMMs inline), and the run must leave exactly what a serial
// run leaves — parameter snapshots, cache files, tables, and the
// on_baseline callbacks in dataset order. These cases train real
// fast-mode baselines, so they live outside the ThreadSanitizer suites;
// test_fleet covers the concurrent path under TSan from a warm cache.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/sweep.h"
#include "io/env.h"
#include "obs/metrics.h"

namespace fs = std::filesystem;

namespace falvolt::core {
namespace {

const std::vector<DatasetKind> kKinds = {DatasetKind::kMnist,
                                         DatasetKind::kNMnist};

struct PhaseResult {
  std::vector<std::string> callbacks;  // on_baseline, in call order
  std::vector<DatasetKind> order;      // context().kinds()
  std::vector<std::string> params;     // cloned parameter bytes per kind
  std::string csv;
  std::uint64_t dispatched = 0;        // GEMM regions sent to the pool
};

std::string param_bytes(snn::Network net) {
  std::string bytes;
  for (const snn::Param* p : net.params()) {
    bytes.append(reinterpret_cast<const char*>(p->value.data()),
                 p->value.size() * sizeof(float));
  }
  return bytes;
}

// One MNIST + N-MNIST grid whose cells read each baseline's accuracy.
PhaseResult run_fleet(int threads, const std::string& cache_dir) {
  WorkloadOptions opts;
  opts.fast = true;
  opts.threads = threads;
  opts.cache_dir = cache_dir;
  FleetRunner fleet(opts);
  PhaseResult out;
  fleet.set_on_baseline([&out](const Workload& w) {
    out.callbacks.push_back(std::string(dataset_name(w.kind)) + " " +
                            std::to_string(w.baseline_accuracy));
  });
  std::vector<Scenario> scenarios;
  for (const DatasetKind kind : kKinds) {
    Scenario s;
    s.key = dataset_name(kind);
    s.dataset = kind;
    scenarios.push_back(s);
  }
  SweepStoreOptions store;
  store.bench = "baselines";
  fleet.add_grid({store, scenarios,
                  [](const Scenario& s, const SweepContext& ctx) {
                    ScenarioResult r;
                    r.metrics = {{"accuracy",
                                  ctx.workload(s.dataset).baseline_accuracy}};
                    return r;
                  }});
  obs::Counter& dispatch = obs::counter("pool.parallel_for.count");
  const std::uint64_t before = dispatch.value();
  out.csv = fleet.run().front().to_csv();
  out.dispatched = dispatch.value() - before;
  out.order = fleet.context().kinds();
  for (const DatasetKind kind : kKinds) {
    out.params.push_back(param_bytes(fleet.context().clone_network(kind)));
  }
  return out;
}

class ConcurrentBaselinesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "falvolt_concurrent_baselines";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(ConcurrentBaselinesTest, ConcurrentTrainingMatchesSerialBitForBit) {
  const PhaseResult serial = run_fleet(1, dir_ + "/serial");
  const PhaseResult concurrent = run_fleet(4, dir_ + "/concurrent");

  // Both trainings ran beside each other with every GEMM inline.
  EXPECT_EQ(concurrent.dispatched, 0u);

  ASSERT_EQ(serial.callbacks.size(), 2u);
  EXPECT_EQ(serial.callbacks[0].rfind("MNIST ", 0), 0u);
  EXPECT_EQ(serial.callbacks[1].rfind("N-MNIST ", 0), 0u);
  EXPECT_EQ(concurrent.callbacks, serial.callbacks);
  EXPECT_EQ(serial.order, kKinds);
  EXPECT_EQ(concurrent.order, kKinds);
  EXPECT_EQ(concurrent.csv, serial.csv);
  for (std::size_t i = 0; i < kKinds.size(); ++i) {
    EXPECT_EQ(concurrent.params[i], serial.params[i])
        << dataset_name(kKinds[i]);
    const auto file = [&](const std::string& cache) {
      return io::real_env().read_file(
          baseline_cache_file(cache, kKinds[i], /*fast=*/true, 7));
    };
    const auto a = file(dir_ + "/serial");
    const auto b = file(dir_ + "/concurrent");
    ASSERT_TRUE(a && b) << dataset_name(kKinds[i]);
    EXPECT_EQ(*a, *b) << dataset_name(kKinds[i]);
  }
}

// A failing preparation is rethrown only after every training thread is
// joined, with the message the serial loop throws (its first dataset's).
TEST_F(ConcurrentBaselinesTest, FailedPreparationRethrowsTheSerialError) {
  // A cache dir below a regular file can never be created.
  std::ofstream(dir_ + "/blocker") << "x";
  const std::string cache = dir_ + "/blocker/cache";
  const auto error_of = [&cache](int threads) {
    try {
      run_fleet(threads, cache);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string serial = error_of(1);
  EXPECT_NE(serial.find("cannot create cache dir"), std::string::npos)
      << serial;
  EXPECT_EQ(error_of(4), serial);
}

}  // namespace
}  // namespace falvolt::core
