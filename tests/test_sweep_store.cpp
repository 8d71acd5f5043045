// FleetRunner x LocalDirStore integration: resume/warm-run semantics,
// deterministic cost-balanced sharding, fingerprint invalidation, and the codec
// the records travel through. Uses workload-free scenario functions so the
// store machinery is exercised without training anything.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/sweep.h"
#include "store/manifest.h"
#include "store/result_store.h"

namespace fs = std::filesystem;

namespace falvolt::core {
namespace {

// Strip the volatile single-line "run" object: everything else in the
// sweep JSON is deterministic for a fixed set of computed cell values.
std::string without_run_line(const std::string& json) {
  std::istringstream in(json);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("\"run\": {") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

class SweepStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "falvolt_sweep_store_test";
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::vector<Scenario> grid(int n = 6) {
    std::vector<Scenario> scenarios;
    for (int i = 0; i < n; ++i) {
      Scenario s;
      s.key = "cell=" + std::to_string(i);
      s.fault_count = i;
      s.fault_seed = 100 + static_cast<std::uint64_t>(i);
      scenarios.push_back(s);
    }
    return scenarios;
  }

  static SweepStoreOptions store_opts(const std::string& dir,
                                      int shard_index = 0,
                                      int shard_count = 1) {
    SweepStoreOptions st;
    st.dir = dir;
    st.bench = "grid_test";
    st.config = {{"epochs", "4"}};
    st.shard_index = shard_index;
    st.shard_count = shard_count;
    return st;
  }

  // Deterministic cell computation whose invocations we can count.
  ScenarioFn counting_fn(std::atomic<int>& computed) {
    return [&computed](const Scenario& s, const SweepContext&) {
      ++computed;
      ScenarioResult out;
      out.metrics = {
          {"value", 10.0 * static_cast<double>(s.fault_count)}};
      out.csv_rows = {{s.key, "row"}};
      out.log = "log " + s.key + "\n";
      return out;
    };
  }

  // One workload-free grid run against the store `st`.
  static ResultTable run(const SweepStoreOptions& st,
                         const std::vector<Scenario>& scenarios,
                         ScenarioFn fn) {
    FleetRunner r{WorkloadOptions{}};
    r.set_prepare_baselines(false);
    r.add_grid({st, scenarios, std::move(fn)});
    return std::move(r.run().front());
  }

  static std::string fingerprint(const Scenario& s,
                                 const WorkloadOptions& opts = {}) {
    return fingerprint_cell(store_opts(""), opts, s);
  }

  std::string dir_;
};

TEST_F(SweepStoreTest, WarmRerunComputesNothingAndIsByteIdentical) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};

  const ResultTable t_cold =
      run(store_opts(dir_), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6);
  EXPECT_TRUE(t_cold.complete());
  EXPECT_EQ(t_cold.computed_cells(), 6u);
  EXPECT_EQ(t_cold.cached_cells(), 0u);

  const ResultTable t_warm =
      run(store_opts(dir_), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6) << "warm run must not recompute";
  EXPECT_TRUE(t_warm.complete());
  EXPECT_EQ(t_warm.computed_cells(), 0u);
  EXPECT_EQ(t_warm.cached_cells(), 6u);

  EXPECT_EQ(t_cold.to_csv(), t_warm.to_csv());
  EXPECT_EQ(without_run_line(t_cold.to_json("grid_test")),
            without_run_line(t_warm.to_json("grid_test")));
  // Replayed cells reproduce the original compute seconds exactly.
  for (std::size_t i = 0; i < t_cold.size(); ++i) {
    EXPECT_EQ(t_cold.at(i).seconds, t_warm.at(i).seconds);
    EXPECT_EQ(t_cold.at(i).log, t_warm.at(i).log);
    EXPECT_EQ(t_cold.at(i).csv_rows, t_warm.at(i).csv_rows);
  }
}

TEST_F(SweepStoreTest, ResumeFalseRecomputesEverything) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};
  run(store_opts(dir_), scenarios, counting_fn(computed));
  SweepStoreOptions st = store_opts(dir_);
  st.resume = false;
  const ResultTable t = run(st, scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 12);
  EXPECT_EQ(t.computed_cells(), 6u);
}

TEST_F(SweepStoreTest, ShardsPartitionDeterministicallyAndMergeExactly) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};

  // The unsharded reference table.
  const ResultTable t_full =
      run(store_opts(dir_ + "_u"), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6);

  // Two shards, separate stores (separate machines).
  const ResultTable t0 =
      run(store_opts(dir_ + "_a", 0, 2), scenarios, counting_fn(computed));
  const ResultTable t1 =
      run(store_opts(dir_ + "_b", 1, 2), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6 + 6);  // each shard computed half
  EXPECT_FALSE(t0.complete());
  EXPECT_FALSE(t1.complete());
  EXPECT_EQ(t0.computed_cells(), 3u);  // indices 0, 2, 4
  EXPECT_EQ(t1.computed_cells(), 3u);  // indices 1, 3, 5
  EXPECT_EQ(t0.absent_cells(), 3u);
  EXPECT_TRUE(t0.is_filled(0));
  EXPECT_FALSE(t0.is_filled(1));

  // Union the shard stores and rebuild the grid from the manifest —
  // exactly what the sweep_merge tool does.
  store::LocalDirStore merged(dir_ + "_m");
  const store::LocalDirStore a(dir_ + "_a"), b(dir_ + "_b");
  store::merge_records(merged, a);
  store::merge_records(merged, b);
  const auto manifest =
      store::read_manifest(store::list_manifests(a, "grid_test").front());
  ASSERT_TRUE(manifest.has_value());
  ASSERT_EQ(manifest->entries.size(), scenarios.size());

  ResultTable rebuilt(manifest->entries.size());
  for (std::size_t i = 0; i < manifest->entries.size(); ++i) {
    const std::optional<std::string> payload =
        merged.get(manifest->entries[i].first);
    ASSERT_TRUE(payload.has_value()) << manifest->entries[i].second;
    ScenarioResult r;
    ASSERT_TRUE(decode_scenario_result(*payload, r));
    rebuilt.put_cached(i, std::move(r));
  }
  EXPECT_TRUE(rebuilt.complete());
  EXPECT_EQ(rebuilt.to_csv(), t_full.to_csv());

  for (const std::string suffix : {"_u", "_a", "_b", "_m"}) {
    fs::remove_all(dir_ + suffix);
  }
}

TEST_F(SweepStoreTest, ResumeComputesOnlyTheMissingCells) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};
  // A "killed" sweep: only shard 0/2's cells made it into the store.
  run(store_opts(dir_, 0, 2), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 3);
  // The rerun resumes: replays the 3 cached cells, computes the rest.
  const ResultTable t =
      run(store_opts(dir_), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6);
  EXPECT_TRUE(t.complete());
  EXPECT_EQ(t.cached_cells(), 3u);
  EXPECT_EQ(t.computed_cells(), 3u);
}

TEST_F(SweepStoreTest, ForeignShardCachedCellsAreReplayed) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};
  // Shard 1's cells land in the SHARED store first...
  run(store_opts(dir_, 1, 2), scenarios, counting_fn(computed));
  // ...so shard 0 pointed at the same store replays them for free and
  // its table is already complete.
  const ResultTable t =
      run(store_opts(dir_, 0, 2), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6);
  EXPECT_TRUE(t.complete());
  EXPECT_EQ(t.cached_cells(), 3u);
}

TEST_F(SweepStoreTest, FingerprintInvalidationOnConfigAndRetrainChange) {
  std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};
  run(store_opts(dir_), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6);

  // Result-affecting bench config changed (e.g. --epochs 4 -> 8): every
  // cell re-addresses, nothing stale hits.
  SweepStoreOptions st = store_opts(dir_);
  st.config = {{"epochs", "8"}};
  run(st, scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 12);

  // Per-scenario retrain config changed: only via the fingerprint.
  Scenario s = scenarios[0];
  const std::string base = fingerprint(s);
  s.epochs = 9;
  EXPECT_NE(fingerprint(s), base);
  s = scenarios[0];
  s.retrain = true;
  EXPECT_NE(fingerprint(s), base);
  s = scenarios[0];
  s.vth = 0.55;
  EXPECT_NE(fingerprint(s), base);
  EXPECT_EQ(fingerprint(scenarios[0]), base);

  // Workload seed is part of the address too (it retrains the baseline).
  WorkloadOptions other_seed;
  other_seed.seed = 8;
  EXPECT_NE(fingerprint(scenarios[0], other_seed), base);
}

TEST_F(SweepStoreTest, CorruptRecordIsRecomputedNotTrusted) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};
  run(store_opts(dir_), scenarios, counting_fn(computed));

  // Truncate one record in place (mid-download crash, disk rot...).
  const store::LocalDirStore rs(dir_);
  const std::string fp = fingerprint(scenarios[2]);
  ASSERT_TRUE(rs.contains(fp));
  fs::resize_file(rs.object_path(fp), 20);

  const ResultTable t =
      run(store_opts(dir_), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 7);  // exactly the damaged cell
  EXPECT_TRUE(t.complete());
  EXPECT_EQ(t.cached_cells(), 5u);
  EXPECT_EQ(t.computed_cells(), 1u);
  EXPECT_TRUE(rs.get(fp).has_value()) << "record must be healed";
}

TEST_F(SweepStoreTest, SubstitutersServeCellsComputedElsewhere) {
  const std::vector<Scenario> scenarios = grid();
  std::atomic<int> computed{0};
  // Machine A computes the grid into its own store.
  const std::string dir_a = dir_ + "_a";
  const ResultTable t_a =
      run(store_opts(dir_a), scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6);
  const std::vector<std::string> records_a =
      store::LocalDirStore(dir_a, /*create=*/false).fingerprints();
  EXPECT_EQ(records_a.size(), 6u);

  // Machine B starts empty but substitutes from A: zero recompute, and
  // nothing is ever written into A.
  SweepStoreOptions st_b = store_opts(dir_);
  st_b.substituters = {dir_a};
  const ResultTable t_b = run(st_b, scenarios, counting_fn(computed));
  EXPECT_EQ(computed.load(), 6) << "every cell substituted";
  EXPECT_TRUE(t_b.complete());
  EXPECT_EQ(t_b.computed_cells(), 0u);
  EXPECT_EQ(t_b.cached_cells(), 6u);
  EXPECT_EQ(t_a.to_csv(), t_b.to_csv());
  EXPECT_EQ(store::LocalDirStore(dir_a, /*create=*/false).fingerprints(),
            records_a)
      << "substituter stays read-only";
  EXPECT_TRUE(store::LocalDirStore(dir_, /*create=*/false)
                  .fingerprints()
                  .empty())
      << "substituted cells are served read-through, not copied locally";

  // A typo'd substituter fails loudly instead of missing everything.
  SweepStoreOptions st_typo = store_opts(dir_ + "_fresh");
  st_typo.substituters = {dir_ + "_nope"};
  EXPECT_THROW(run(st_typo, scenarios, counting_fn(computed)),
               std::invalid_argument);
  fs::remove_all(dir_a);
  fs::remove_all(dir_ + "_fresh");
}

TEST(SweepStoreCodec, RoundTripsEveryField) {
  ScenarioResult r;
  r.scenario.key = "MNIST/rate=30/vth=0.45";
  r.scenario.tag = "FalVolt";
  r.scenario.dataset = DatasetKind::kDvsGesture;
  r.scenario.vth = 0.45;
  r.scenario.fault_rate = 0.30;
  r.scenario.fault_count = 8;
  r.scenario.bit = 15;
  r.scenario.stuck = fx::StuckType::kStuckAt0;
  r.scenario.array_size = 64;
  r.scenario.repeat = 3;
  r.scenario.fault_seed = 0xdeadbeefcafeULL;
  r.scenario.retrain = true;
  r.scenario.epochs = 8;
  r.fingerprint = std::string(64, 'a');
  r.metrics = {{"accuracy", 97.25}, {"vth:conv1", 0.5}};
  r.csv_rows = {{"a", "b,c", "d\"e"}, {}};
  r.log = "line1\nline2\n";
  r.seconds = 12.5;
  r.provenance.host = "fleet-node-07";
  r.provenance.version = "0.4.0";
  r.provenance.unix_time = 1753660800;
  r.provenance.store_epoch = 1;

  ScenarioResult back;
  ASSERT_TRUE(decode_scenario_result(encode_scenario_result(r), back));
  EXPECT_EQ(back.scenario.key, r.scenario.key);
  EXPECT_EQ(back.scenario.tag, r.scenario.tag);
  EXPECT_EQ(back.scenario.dataset, r.scenario.dataset);
  EXPECT_EQ(back.scenario.vth, r.scenario.vth);
  EXPECT_EQ(back.scenario.fault_rate, r.scenario.fault_rate);
  EXPECT_EQ(back.scenario.fault_count, r.scenario.fault_count);
  EXPECT_EQ(back.scenario.bit, r.scenario.bit);
  EXPECT_EQ(back.scenario.stuck, r.scenario.stuck);
  EXPECT_EQ(back.scenario.array_size, r.scenario.array_size);
  EXPECT_EQ(back.scenario.repeat, r.scenario.repeat);
  EXPECT_EQ(back.scenario.fault_seed, r.scenario.fault_seed);
  EXPECT_EQ(back.scenario.retrain, r.scenario.retrain);
  EXPECT_EQ(back.scenario.epochs, r.scenario.epochs);
  EXPECT_EQ(back.fingerprint, r.fingerprint);
  EXPECT_EQ(back.metrics, r.metrics);
  EXPECT_EQ(back.csv_rows, r.csv_rows);
  EXPECT_EQ(back.log, r.log);
  EXPECT_EQ(back.seconds, r.seconds);
  EXPECT_EQ(back.provenance.host, r.provenance.host);
  EXPECT_EQ(back.provenance.version, r.provenance.version);
  EXPECT_EQ(back.provenance.unix_time, r.provenance.unix_time);
  EXPECT_EQ(back.provenance.store_epoch, r.provenance.store_epoch);
}

TEST(SweepStoreCodec, RejectsDamageInsteadOfThrowing) {
  ScenarioResult r;
  r.scenario.key = "k";
  r.metrics = {{"m", 1.0}};
  const std::string bytes = encode_scenario_result(r);
  ScenarioResult out;
  EXPECT_FALSE(decode_scenario_result("", out));
  EXPECT_FALSE(decode_scenario_result("garbage", out));
  for (const std::size_t keep : {bytes.size() - 1, bytes.size() / 2,
                                 std::size_t{5}}) {
    EXPECT_FALSE(decode_scenario_result(bytes.substr(0, keep), out))
        << "kept " << keep;
  }
  EXPECT_FALSE(decode_scenario_result(bytes + "x", out));  // trailing
  // Foreign codec version.
  std::string wrong_version = bytes;
  wrong_version[0] = static_cast<char>(99);
  EXPECT_FALSE(decode_scenario_result(wrong_version, out));
}

TEST(SweepShard, ParseShardSpec) {
  EXPECT_EQ(parse_shard_spec(""), (std::pair<int, int>{0, 1}));
  EXPECT_EQ(parse_shard_spec("0/1"), (std::pair<int, int>{0, 1}));
  EXPECT_EQ(parse_shard_spec("2/4"), (std::pair<int, int>{2, 4}));
  EXPECT_THROW(parse_shard_spec("2"), std::invalid_argument);
  EXPECT_THROW(parse_shard_spec("4/4"), std::invalid_argument);
  EXPECT_THROW(parse_shard_spec("-1/4"), std::invalid_argument);
  EXPECT_THROW(parse_shard_spec("0/0"), std::invalid_argument);
  EXPECT_THROW(parse_shard_spec("a/b"), std::invalid_argument);
  EXPECT_THROW(parse_shard_spec("1/2x"), std::invalid_argument);
}

// ------------------------------------------------ shard_partition

TEST(ShardPartition, EqualCostsDegradeToRoundRobin) {
  // Equal cost hints carry no balance information; the partition must
  // fall back to exactly the legacy index-modulo layout so existing
  // sharded stores keep their cell ownership.
  const std::vector<double> costs(10, 1.0);
  const std::vector<int> owners = shard_partition(costs, 3);
  ASSERT_EQ(owners.size(), costs.size());
  for (std::size_t i = 0; i < owners.size(); ++i) {
    EXPECT_EQ(owners[i], static_cast<int>(i % 3)) << "cell " << i;
  }
}

TEST(ShardPartition, BalancesSkewedCostsBetterThanModulo) {
  // Heavy cells at even indices: index-modulo with two shards piles
  // every heavy cell onto shard 0 (600 vs 6); greedy LPT alternates
  // them and lands on the 303/303 optimum.
  std::vector<double> costs;
  for (int i = 0; i < 12; ++i) costs.push_back(i % 2 == 0 ? 100.0 : 1.0);
  const std::vector<int> owners = shard_partition(costs, 2);
  double lpt[2] = {0.0, 0.0};
  double modulo[2] = {0.0, 0.0};
  for (std::size_t i = 0; i < costs.size(); ++i) {
    ASSERT_GE(owners[i], 0);
    ASSERT_LT(owners[i], 2);
    lpt[owners[i]] += costs[i];
    modulo[i % 2] += costs[i];
  }
  const double lpt_max = std::max(lpt[0], lpt[1]);
  EXPECT_LT(lpt_max, std::max(modulo[0], modulo[1]));
  EXPECT_DOUBLE_EQ(lpt_max, 303.0);  // the optimum: total / 2
}

TEST(ShardPartition, DeterministicCompleteAndValidated) {
  const std::vector<double> costs = {7.0, 7.0, 1.0, 12.0, 0.5,
                                     3.0, 12.0, 1.0, 9.0};
  const std::vector<int> a = shard_partition(costs, 4);
  const std::vector<int> b = shard_partition(costs, 4);
  EXPECT_EQ(a, b);  // independently launched shards must agree
  for (const int owner : a) {
    EXPECT_GE(owner, 0);
    EXPECT_LT(owner, 4);
  }
  EXPECT_EQ(shard_partition(costs, 1), std::vector<int>(9, 0));
  EXPECT_THROW(shard_partition(costs, 0), std::invalid_argument);
}

}  // namespace
}  // namespace falvolt::core
