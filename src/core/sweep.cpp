#include "core/sweep.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <stdexcept>
#include <thread>

#include "common/bytes.h"
#include "common/env.h"
#include "common/json.h"
#include "common/timer.h"
#include "common/version.h"
#include "compute/thread_pool.h"
#include "io/csv.h"
#include "io/env.h"
#include "io/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/fingerprint.h"
#include "store/manifest.h"
#include "store/result_store.h"
#include "store/store_api.h"

namespace falvolt::core {

namespace {

// splitmix64 finalizer — turns the raw key hash into a well-mixed seed.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

using common::json_escape;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// --------------------------------------------- ScenarioResult byte codec
//
// Little-endian, length-prefixed throughout (common/bytes.h — the same
// primitives the fleet wire protocol frames with). The store frame
// around the payload already carries magic/epoch/checksum
// (record_frame.h), so the codec only needs a version word of its own
// plus per-field lengths that the reader validates against the
// remaining bytes.

// v2 appended the provenance block (host, version, unix_time,
// store_epoch). decode rejects foreign versions, so a store written by
// an older build degrades to recompute-on-read — never an error.
// POLICY: every codec bump must bump store::kStoreFormatEpoch with it
// (see fingerprint.h) so old and new records never share an address.
constexpr std::uint32_t kCodecVersion = 2;

// Hostname of this process, resolved once (records are stamped from
// worker threads; gethostname on every cell would be wasted syscalls).
const std::string& process_hostname() {
  static const std::string host = [] {
    char buf[256] = {0};
    if (::gethostname(buf, sizeof(buf) - 1) != 0) {
      return std::string("unknown");
    }
    return std::string(buf);
  }();
  return host;
}

Provenance make_provenance() {
  Provenance p;
  p.host = process_hostname();
  p.version = kFalvoltVersion;
  p.unix_time = static_cast<std::uint64_t>(std::time(nullptr));
  p.store_epoch = store::kStoreFormatEpoch;
  return p;
}

using common::ByteReader;
using common::put_f64;
using common::put_i32;
using common::put_str;
using common::put_u32;
using common::put_u64;

// One cell of FleetRunner::run()'s queue: which added grid, which
// grid-local scenario index, and the cost estimate that ordered it.
struct Claim {
  int grid = 0;
  int index = 0;
  double cost = 0.0;
};

}  // namespace

std::string encode_scenario_result(const ScenarioResult& r) {
  std::string b;
  put_u32(b, kCodecVersion);
  put_str(b, r.scenario.key);
  put_str(b, r.scenario.tag);
  put_u32(b, static_cast<std::uint32_t>(r.scenario.dataset));
  put_f64(b, r.scenario.vth);
  put_f64(b, r.scenario.fault_rate);
  put_i32(b, r.scenario.fault_count);
  put_i32(b, r.scenario.bit);
  put_u32(b, static_cast<std::uint32_t>(r.scenario.stuck));
  put_i32(b, r.scenario.array_size);
  put_i32(b, r.scenario.repeat);
  put_u64(b, r.scenario.fault_seed);
  put_u32(b, r.scenario.retrain ? 1 : 0);
  put_i32(b, r.scenario.epochs);
  put_str(b, r.fingerprint);
  put_u32(b, static_cast<std::uint32_t>(r.metrics.size()));
  for (const auto& [name, value] : r.metrics) {
    put_str(b, name);
    put_f64(b, value);
  }
  put_u32(b, static_cast<std::uint32_t>(r.csv_rows.size()));
  for (const auto& row : r.csv_rows) {
    put_u32(b, static_cast<std::uint32_t>(row.size()));
    for (const std::string& cell : row) put_str(b, cell);
  }
  put_str(b, r.log);
  put_f64(b, r.seconds);
  put_str(b, r.provenance.host);
  put_str(b, r.provenance.version);
  put_u64(b, r.provenance.unix_time);
  put_u32(b, r.provenance.store_epoch);
  return b;
}

bool decode_scenario_result(const std::string& bytes, ScenarioResult& out) {
  ByteReader in{bytes};
  std::uint32_t version = 0;
  if (!in.u32(version) || version != kCodecVersion) return false;
  ScenarioResult r;
  std::uint32_t dataset = 0;
  std::uint32_t stuck = 0;
  std::uint32_t retrain = 0;
  if (!in.str(r.scenario.key) || !in.str(r.scenario.tag) ||
      !in.u32(dataset) || !in.f64(r.scenario.vth) ||
      !in.f64(r.scenario.fault_rate) || !in.i32(r.scenario.fault_count) ||
      !in.i32(r.scenario.bit) || !in.u32(stuck) ||
      !in.i32(r.scenario.array_size) || !in.i32(r.scenario.repeat) ||
      !in.u64(r.scenario.fault_seed) || !in.u32(retrain) ||
      !in.i32(r.scenario.epochs) || !in.str(r.fingerprint)) {
    return false;
  }
  if (dataset > static_cast<std::uint32_t>(DatasetKind::kDvsGesture) ||
      stuck > 1 || retrain > 1) {
    return false;
  }
  r.scenario.dataset = static_cast<DatasetKind>(dataset);
  r.scenario.stuck = static_cast<fx::StuckType>(stuck);
  r.scenario.retrain = retrain != 0;

  std::uint32_t metric_count = 0;
  if (!in.u32(metric_count)) return false;
  r.metrics.reserve(std::min<std::size_t>(metric_count, in.remaining()));
  for (std::uint32_t m = 0; m < metric_count; ++m) {
    std::string name;
    double value = 0.0;
    if (!in.str(name) || !in.f64(value)) return false;
    r.metrics.emplace_back(std::move(name), value);
  }
  std::uint32_t row_count = 0;
  if (!in.u32(row_count)) return false;
  for (std::uint32_t i = 0; i < row_count; ++i) {
    std::uint32_t cell_count = 0;
    if (!in.u32(cell_count)) return false;
    std::vector<std::string> row;
    row.reserve(std::min<std::size_t>(cell_count, in.remaining()));
    for (std::uint32_t c = 0; c < cell_count; ++c) {
      std::string cell;
      if (!in.str(cell)) return false;
      row.push_back(std::move(cell));
    }
    r.csv_rows.push_back(std::move(row));
  }
  if (!in.str(r.log) || !in.f64(r.seconds)) return false;
  if (!in.str(r.provenance.host) || !in.str(r.provenance.version) ||
      !in.u64(r.provenance.unix_time) || !in.u32(r.provenance.store_epoch)) {
    return false;
  }
  // Trailing garbage means the record is not what encode() wrote.
  if (in.remaining() != 0) return false;
  out = std::move(r);
  return true;
}

std::pair<int, int> parse_shard_spec(const std::string& spec) {
  if (spec.empty()) return {0, 1};
  const std::size_t slash = spec.find('/');
  if (slash == std::string::npos || slash == 0 ||
      slash + 1 >= spec.size()) {
    throw std::invalid_argument("shard spec must be 'i/n', got '" + spec +
                                "'");
  }
  int index = 0;
  int count = 0;
  try {
    std::size_t used = 0;
    index = std::stoi(spec.substr(0, slash), &used);
    if (used != slash) throw std::invalid_argument("trailing junk");
    const std::string count_part = spec.substr(slash + 1);
    count = std::stoi(count_part, &used);
    if (used != count_part.size()) throw std::invalid_argument("junk");
  } catch (const std::exception&) {
    throw std::invalid_argument("shard spec must be 'i/n', got '" + spec +
                                "'");
  }
  if (count < 1 || index < 0 || index >= count) {
    throw std::invalid_argument("shard spec '" + spec +
                                "' needs 0 <= i < n");
  }
  return {index, count};
}

std::vector<int> shard_partition(const std::vector<double>& costs,
                                 int shard_count) {
  if (shard_count < 1) {
    throw std::invalid_argument("shard_partition: shard_count must be >= 1");
  }
  std::vector<int> owners(costs.size(), 0);
  if (shard_count == 1) return owners;
  // Greedy LPT: visit cells most-expensive-first (stable sort, so equal
  // costs keep grid order and the partition is deterministic), assign
  // each to the least-loaded shard so far (ties to the lowest shard id).
  std::vector<int> order(costs.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::stable_sort(order.begin(), order.end(), [&costs](int a, int b) {
    return costs[static_cast<std::size_t>(a)] >
           costs[static_cast<std::size_t>(b)];
  });
  std::vector<double> load(static_cast<std::size_t>(shard_count), 0.0);
  for (const int i : order) {
    int best = 0;
    for (int s = 1; s < shard_count; ++s) {
      if (load[static_cast<std::size_t>(s)] <
          load[static_cast<std::size_t>(best)]) {
        best = s;
      }
    }
    owners[static_cast<std::size_t>(i)] = best;
    load[static_cast<std::size_t>(best)] +=
        costs[static_cast<std::size_t>(i)];
  }
  return owners;
}

double scenario_cost_estimate(const Scenario& s) {
  if (s.cost_hint > 0.0) return s.cost_hint;
  if (s.retrain) {
    return kRetrainCostPerEpoch * static_cast<double>(std::max(1, s.epochs));
  }
  return 1.0;
}

std::uint64_t scenario_seed(const Scenario& s) {
  // FNV-1a over the key, then fold in the explicit fault seed so two
  // scenarios differing only in fault_seed get distinct streams too.
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s.key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return mix64(h + 0x9e3779b97f4a7c15ULL * (s.fault_seed + 1));
}

common::Rng scenario_rng(const Scenario& s) {
  return common::Rng(scenario_seed(s));
}

// ------------------------------------------------------------ ResultTable

void ResultTable::set_slot(std::size_t index, ScenarioResult result,
                           SlotState state) {
  std::lock_guard<std::mutex> lock(*mu_);
  rows_.at(index) = std::move(result);
  state_.at(index) = state;
}

void ResultTable::put(std::size_t index, ScenarioResult result) {
  set_slot(index, std::move(result), kComputed);
}

void ResultTable::put_cached(std::size_t index, ScenarioResult result) {
  set_slot(index, std::move(result), kCached);
}

std::size_t ResultTable::count(SlotState state) const {
  std::size_t n = 0;
  for (const char s : state_) {
    if (s == state) ++n;
  }
  return n;
}

bool ResultTable::is_filled(std::size_t index) const {
  return state_.at(index) != kAbsent;
}

bool ResultTable::is_cached(std::size_t index) const {
  return state_.at(index) == kCached;
}

bool ResultTable::complete() const {
  return count(kAbsent) == 0;
}

const ScenarioResult& ResultTable::at(std::size_t index) const {
  return rows_.at(index);
}

const ScenarioResult* ResultTable::find(const std::string& key) const {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (state_[i] != kAbsent && rows_[i].scenario.key == key) {
      return &rows_[i];
    }
  }
  return nullptr;
}

const ScenarioResult& ResultTable::get(const std::string& key) const {
  const ScenarioResult* r = find(key);
  if (!r) throw std::out_of_range("ResultTable: no scenario " + key);
  return *r;
}

std::string ResultTable::to_csv() const {
  // Columns are the union of all metric names in first-seen order, so
  // sweeps with heterogeneous metrics (e.g. the ablation arms) still
  // emit rectangular CSV — a scenario missing a metric gets an empty
  // cell. Absent slots (cells of other shards) are skipped.
  std::vector<std::string> columns;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (state_[i] == kAbsent) continue;
    for (const auto& [name, value] : rows_[i].metrics) {
      (void)value;
      if (std::find(columns.begin(), columns.end(), name) ==
          columns.end()) {
        columns.push_back(name);
      }
    }
  }
  std::string out = "key,tag,dataset";
  for (const std::string& name : columns) {
    out += ',';
    out += io::csv_escape(name);
  }
  out += '\n';
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (state_[i] == kAbsent) continue;
    const ScenarioResult& r = rows_[i];
    out += io::csv_escape(r.scenario.key);
    out += ',';
    out += io::csv_escape(r.scenario.tag);
    out += ',';
    out += io::csv_escape(dataset_name(r.scenario.dataset));
    for (const std::string& name : columns) {
      out += ',';
      for (const auto& [metric, value] : r.metrics) {
        if (metric == name) {
          out += io::CsvWriter::format(value);
          break;
        }
      }
    }
    out += '\n';
  }
  return out;
}

std::string ResultTable::to_json(const std::string& bench_name) const {
  // The per-scenario entries below are deterministic for a given set of
  // computed cell values (replayed cells reproduce the compute seconds
  // stored in their record); everything run-specific stays on the
  // single "run" line so warm/cold runs diff clean without it.
  std::string computed_keys = "[";
  bool first = true;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (state_[i] != kComputed) continue;
    computed_keys += first ? "\"" : ", \"";
    computed_keys += json_escape(rows_[i].scenario.key);
    computed_keys += '"';
    first = false;
  }
  computed_keys += ']';

  std::string json =
      "{\n  \"bench\": \"" + json_escape(bench_name) +
      "\",\n  \"scenario_count\": " + std::to_string(rows_.size()) +
      ",\n  \"run\": {\"sweep_parallel\": " +
      std::to_string(sweep_parallel_) +
      ", \"threads\": " + std::to_string(threads_) +
      ", \"total_seconds\": " + json_number(total_seconds_) +
      ", \"shard_index\": " + std::to_string(shard_index_) +
      ", \"shard_count\": " + std::to_string(shard_count_) +
      ", \"cells_computed\": " + std::to_string(computed_cells()) +
      ", \"cells_cached\": " + std::to_string(cached_cells()) +
      ", \"cells_absent\": " + std::to_string(absent_cells()) +
      ", \"computed_keys\": " + computed_keys + "},\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const ScenarioResult& r = rows_[i];
    if (state_[i] == kAbsent) {
      json += "    {\"key\": \"" + json_escape(r.scenario.key) +
              "\", \"fingerprint\": \"" + json_escape(r.fingerprint) +
              "\", \"absent\": true}";
    } else {
      json += "    {\"key\": \"" + json_escape(r.scenario.key) +
              "\", \"tag\": \"" + json_escape(r.scenario.tag) +
              "\", \"dataset\": \"" + dataset_name(r.scenario.dataset) +
              "\", \"repeat\": " + std::to_string(r.scenario.repeat) +
              ", \"retrain\": " +
              (r.scenario.retrain ? "true" : "false") +
              ", \"fingerprint\": \"" + json_escape(r.fingerprint) +
              "\", \"seconds\": " + json_number(r.seconds) +
              ", \"provenance\": {\"host\": \"" +
              json_escape(r.provenance.host) + "\", \"version\": \"" +
              json_escape(r.provenance.version) + "\", \"unix_time\": " +
              std::to_string(r.provenance.unix_time) +
              ", \"store_epoch\": " +
              std::to_string(r.provenance.store_epoch) + "}, \"metrics\": {";
      for (std::size_t m = 0; m < r.metrics.size(); ++m) {
        json += (m ? ", \"" : "\"") + json_escape(r.metrics[m].first) +
                "\": " + json_number(r.metrics[m].second);
      }
      json += "}}";
    }
    json += i + 1 == rows_.size() ? "\n" : ",\n";
  }
  json += "  ]\n}\n";
  return json;
}

void ResultTable::write_json(const std::string& path,
                             const std::string& bench_name) const {
  if (!io::publish_file(path, to_json(bench_name))) {
    throw std::runtime_error("ResultTable: damaged write of " + path);
  }
}

// ----------------------------------------------------------- SweepContext

const Workload& SweepContext::workload(DatasetKind kind) const {
  const auto it = baselines_.find(kind);
  if (it == baselines_.end()) {
    throw std::logic_error(std::string("SweepContext: workload ") +
                           dataset_name(kind) + " was never prepared");
  }
  return it->second.workload;
}

snn::Network SweepContext::clone_network(DatasetKind kind) const {
  const auto it = baselines_.find(kind);
  if (it == baselines_.end()) {
    throw std::logic_error(std::string("SweepContext: workload ") +
                           dataset_name(kind) + " was never prepared");
  }
  snn::Network net =
      build_network(kind, it->second.workload.data.train, opts_.seed);
  net.restore_params(it->second.snapshot);
  return net;
}

// ------------------------------------------------------- fingerprint_cell

std::string fingerprint_cell(const SweepStoreOptions& store,
                             const WorkloadOptions& opts, const Scenario& s) {
  // Everything that determines the cell's output, nothing that is
  // execution-only (cost_hint drives only queue order, so it is absent —
  // two scenarios differing only in cost estimate are the same cell).
  // Field ORDER is part of the hash — append new fields at the end (any
  // change here re-addresses the whole store, which is safe but
  // discards every cached cell).
  store::Fingerprinter fp;
  fp.add("bench", store.bench);
  for (const auto& [name, value] : store.config) {
    fp.add("cfg:" + name, value);
  }
  fp.add("workload", workload_id(s.dataset, opts));
  fp.add("key", s.key);
  fp.add("tag", s.tag);
  fp.add("vth", s.vth);
  fp.add("fault_rate", s.fault_rate);
  fp.add("fault_count", static_cast<std::int64_t>(s.fault_count));
  fp.add("bit", static_cast<std::int64_t>(s.bit));
  fp.add("stuck", static_cast<std::int64_t>(s.stuck));
  fp.add("array_size", static_cast<std::int64_t>(s.array_size));
  fp.add("repeat", static_cast<std::int64_t>(s.repeat));
  fp.add("fault_seed", std::uint64_t{s.fault_seed});
  fp.add("retrain", s.retrain);
  fp.add("epochs", static_cast<std::int64_t>(s.epochs));
  return fp.digest();
}

// ------------------------------------------------------------ FleetRunner

FleetRunner::FleetRunner(WorkloadOptions opts) : opts_(std::move(opts)) {
  ctx_.opts_ = opts_;
}

void FleetRunner::add_grid(FleetGrid grid) {
  if (grid.store.shard_count < 1 || grid.store.shard_index < 0 ||
      grid.store.shard_index >= grid.store.shard_count) {
    throw std::invalid_argument(
        "FleetRunner: shard index " + std::to_string(grid.store.shard_index) +
        " out of range for " + std::to_string(grid.store.shard_count) +
        " shard(s)");
  }
  if (!grid.fn) {
    throw std::invalid_argument("FleetRunner: grid '" + grid.store.bench +
                                "' has no scenario function");
  }
  grids_.push_back(std::move(grid));
}

void FleetRunner::prepare_kinds(const std::set<DatasetKind>& kinds) {
  static obs::Counter& ns = obs::counter("sweep.baseline.ns");
  static obs::Counter& count = obs::counter("sweep.baseline.count");
  std::vector<DatasetKind> todo;
  for (const DatasetKind kind : kinds) {
    if (!ctx_.baselines_.count(kind)) todo.push_back(kind);
  }
  if (todo.empty()) return;
  // One wall-clock reading for the whole phase: overlapping trainings
  // timed one by one would sum to more than the phase took. The
  // per-dataset times live in the baseline:<dataset> trace spans.
  common::Timer phase;
  const auto commit = [this](Workload wl) {
    std::vector<tensor::Tensor> snapshot = wl.net.snapshot_params();
    if (on_baseline_) on_baseline_(wl);
    const DatasetKind kind = wl.kind;
    ctx_.order_.push_back(kind);
    ctx_.baselines_.emplace(
        kind, SweepContext::Baseline{std::move(wl), std::move(snapshot)});
    count.add(1);
  };

  // Training barely uses the GEMM pool (its rows are small), so several
  // uncached baselines train side by side, one thread per dataset, up to
  // the --threads budget. One dataset, or --threads 1, trains on this
  // thread with the full pool.
  int lanes = 1;
  if (todo.size() > 1) {
    if (opts_.threads > 0) compute::set_global_threads(opts_.threads);
    lanes = std::min(static_cast<int>(todo.size()), compute::global_threads());
  }
  if (lanes <= 1) {
    for (const DatasetKind kind : todo) {
      obs::TraceSpan span("sweep",
                          std::string("baseline:") + dataset_name(kind));
      commit(prepare_workload(kind, opts_));
    }
  } else {
    WorkloadOptions inner = opts_;
    inner.threads = 0;  // the pool is sized above, before any thread starts
    std::vector<std::optional<Workload>> ready(todo.size());
    std::vector<std::exception_ptr> errors(todo.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < lanes; ++t) {
      threads.emplace_back([&] {
        const compute::InlineScope inline_gemms;
        for (std::size_t i = next++; i < todo.size(); i = next++) {
          const std::string name = dataset_name(todo[i]);
          if (obs::trace_enabled()) {
            obs::set_trace_thread_name("baseline " + name);
          }
          obs::TraceSpan span("sweep", "baseline:" + name);
          try {
            ready[i] = prepare_workload(todo[i], inner);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    // Commit in dataset order and stop at the first failure, as the
    // serial loop does: snapshots, callbacks and their output, and the
    // context order never depend on which training finished first.
    for (std::size_t i = 0; i < todo.size(); ++i) {
      if (errors[i]) std::rethrow_exception(errors[i]);
      commit(std::move(*ready[i]));
    }
  }
  baseline_seconds_ = phase.seconds();
  ns.add(static_cast<std::uint64_t>(baseline_seconds_ * 1e9));
}

int FleetRunner::effective_parallel(std::size_t n) const {
  int want = opts_.sweep_parallel;
  if (want <= 0) {
    const long long env = common::env_int_or("FALVOLT_SWEEP_PARALLEL", 0);
    if (env > 0) {
      want = static_cast<int>(
          std::min<long long>(env, compute::ThreadPool::kMaxThreads));
    } else {
      const unsigned hw = std::thread::hardware_concurrency();
      want = hw == 0 ? 1 : static_cast<int>(hw);
    }
  }
  want = std::min(want, compute::ThreadPool::kMaxThreads);
  if (n > 0) {
    want = std::min(want,
                    static_cast<int>(std::min<std::size_t>(n, 1u << 16)));
  }
  return std::max(1, want);
}

struct FleetRunner::GridState {
  const FleetGrid* grid = nullptr;
  std::string label;  // prefixes this grid's progress and error lines
  std::unique_ptr<store::StoreApi> rs;
  std::vector<std::string> fps;
  ResultTable table;
  std::vector<int> pending;          // grid-local indices this run computes
  std::vector<double> pending_cost;  // estimated cost of each pending cell
};

// Fingerprints grid `g`, writes its manifest, replays every store hit
// into its table, and lists the cells this run must compute.
FleetRunner::GridState FleetRunner::triage(std::size_t g) const {
  GridState st;
  st.grid = &grids_[g];
  const SweepStoreOptions& store = st.grid->store;
  const std::vector<Scenario>& scenarios = st.grid->scenarios;
  st.label = store.bench.empty() ? "grid" + std::to_string(g) : store.bench;
  {
    std::set<std::string> keys;
    for (const Scenario& s : scenarios) {
      if (!keys.insert(s.key).second) {
        throw std::invalid_argument(
            "FleetRunner: " + st.label + ": duplicate scenario key " + s.key);
      }
    }
  }
  const std::size_t total = scenarios.size();
  st.table = ResultTable(total);
  st.table.shard_index_ = store.shard_index;
  st.table.shard_count_ = store.shard_count;
  st.fps.assign(total, "");

  const bool use_store = !store.dir.empty();
  if (use_store) {
    st.rs = store::open_store(store.dir, store.substituters);
    for (std::size_t i = 0; i < total; ++i) {
      st.fps[i] = fingerprint_cell(store, opts_, scenarios[i]);
    }
    // The manifest lists the FULL grid (all shards) and is identical
    // across the shards of one grid; written before any compute so a
    // killed sweep still leaves the merge/plan tooling its grid.
    store::Manifest manifest;
    manifest.bench = store.bench.empty() ? "sweep" : store.bench;
    for (std::size_t i = 0; i < total; ++i) {
      manifest.entries.emplace_back(st.fps[i], scenarios[i].key);
    }
    st.rs->put_manifest(manifest);
  }
  // Cost-balanced shard ownership over the STATIC cost estimates (every
  // independently launched shard derives the identical partition).
  std::vector<int> owners;
  if (store.shard_count > 1) {
    std::vector<double> est(total);
    for (std::size_t i = 0; i < total; ++i) {
      est[i] = scenario_cost_estimate(scenarios[i]);
    }
    owners = shard_partition(est, store.shard_count);
  }

  // Triage every cell: replay a valid cached record (any shard's),
  // otherwise compute it if this shard owns it, otherwise leave the
  // slot absent for sweep_merge to fill from the other shards' stores.
  static obs::Counter& cached_cells = obs::counter("sweep.cells.cached");
  static obs::Counter& get_ns = obs::counter("sweep.store.get.ns");
  static obs::Counter& get_count = obs::counter("sweep.store.get.count");
  obs::TraceSpan triage_span("sweep", "triage:" + st.label);
  for (std::size_t i = 0; i < total; ++i) {
    st.table.rows_[i].scenario = scenarios[i];
    st.table.rows_[i].fingerprint = st.fps[i];
    if (use_store && store.resume) {
      obs::TraceSpan span("store", "triage.get");
      if (obs::trace_enabled()) {
        span.arg("key", scenarios[i].key);
        span.arg("fingerprint", st.fps[i].substr(0, 16));
      }
      std::optional<std::string> payload;
      {
        obs::ScopedTimer timed(get_ns, get_count);
        payload = st.rs->get(st.fps[i]);
      }
      if (payload) {
        ScenarioResult cached;
        if (decode_scenario_result(*payload, cached) &&
            cached.scenario.key == scenarios[i].key) {
          cached.scenario = scenarios[i];
          cached.fingerprint = st.fps[i];
          st.table.set_slot(i, std::move(cached), ResultTable::kCached);
          cached_cells.add(1);
          span.arg("cached", true);
          continue;
        }
        // Fingerprint collision with a foreign key, or a record the
        // codec rejects: both read as a miss.
      }
      span.arg("cached", false);
    }
    if (store.shard_count == 1 || owners[i] == store.shard_index) {
      // Estimated cost for the cost-ordered queue. On a warm store a
      // recompute run (--resume false) refines the grid's static
      // estimate with the wall-clock the cell took last time — the
      // most accurate predictor available. (With resume on, a cell
      // that has a usable record was replayed above, so every pending
      // cell is a true miss with no history.)
      double cost = scenario_cost_estimate(scenarios[i]);
      if (use_store && !store.resume) {
        if (const std::optional<std::string> prior = st.rs->get(st.fps[i])) {
          ScenarioResult previous;
          if (decode_scenario_result(*prior, previous) &&
              previous.seconds > 0.0) {
            cost = previous.seconds;
          }
        }
      }
      st.pending.push_back(static_cast<int>(i));
      st.pending_cost.push_back(cost);
    }
  }
  if (use_store) {
    std::fprintf(stderr,
                 "[sweep] %s @ store %s: %zu cached, %zu to compute, %zu "
                 "foreign-shard cell(s) (shard %d/%d)\n",
                 st.label.c_str(), store.dir.c_str(),
                 st.table.cached_cells(), st.pending.size(),
                 total - st.table.cached_cells() - st.pending.size(),
                 store.shard_index, store.shard_count);
  }
  return st;
}

std::vector<ResultTable> FleetRunner::run() {
  if (grids_.empty()) {
    throw std::logic_error("FleetRunner: no grids added");
  }
  baseline_seconds_ = 0.0;
  std::vector<GridState> gs;
  gs.reserve(grids_.size());
  for (std::size_t g = 0; g < grids_.size(); ++g) gs.push_back(triage(g));

  // The cross-grid work queue. Workers claim one cell at a time from a
  // shared counter, so a worker done with one bench's cheap cells
  // immediately steals the next bench's pending cells — no per-grid
  // barrier, no idle tail while another grid still has work. The queue
  // is sorted most-expensive first (stable, so equal-cost cells keep
  // grid-major order): on a heterogeneous fleet a retrain cell claimed
  // LAST strands one worker for its whole duration after every other
  // worker drained the cheap evals; claimed FIRST it overlaps all of
  // them. Ordering is pure scheduling — tables are emitted in grid
  // order, so any claim order produces byte-identical CSV/JSON values.
  std::vector<Claim> queue;
  for (std::size_t g = 0; g < gs.size(); ++g) {
    for (std::size_t p = 0; p < gs[g].pending.size(); ++p) {
      queue.push_back(Claim{static_cast<int>(g), gs[g].pending[p],
                            gs[g].pending_cost[p]});
    }
  }
  std::stable_sort(queue.begin(), queue.end(),
                   [](const Claim& a, const Claim& b) {
                     return a.cost > b.cost;
                   });

  // Baselines only for datasets some grid actually computes — shared
  // across grids through ctx_, so a fleet trains/loads each dataset
  // once no matter how many benches need it, and a fully warm re-run
  // trains/loads nothing at all.
  if (prepare_baselines_ && !queue.empty()) {
    std::set<DatasetKind> kinds;
    for (const Claim& c : queue) {
      kinds.insert(gs[static_cast<std::size_t>(c.grid)].grid->scenarios
                       [static_cast<std::size_t>(c.index)].dataset);
    }
    prepare_kinds(kinds);
  }

  const int np = static_cast<int>(queue.size());
  const int parallel = np == 0 ? 1 : effective_parallel(queue.size());
  // Workload-free and fully-cached sweeps must not spawn the
  // process-wide GEMM pool just to report its size in the JSON summary;
  // when baselines were prepared the pool already exists (training ran
  // on it).
  const int threads =
      prepare_baselines_ && np > 0 ? compute::global_threads() : 0;
  for (GridState& st : gs) {
    st.table.sweep_parallel_ = parallel;
    st.table.threads_ = threads;
  }

  // While this run still has cells to publish, mark every destination
  // store in-progress (a pid-stamped marker under tmp/):
  // sweep_merge refuses to emit a partial table from a store a live
  // fleet is still publishing into. RAII — markers vanish on every exit
  // path, and a SIGKILL leaves only a dead-pid marker later runs ignore.
  std::vector<std::unique_ptr<store::InProgressGuard>> inprogress;
  {
    std::set<std::string> marked;
    for (const GridState& st : gs) {
      if (st.pending.empty() || !st.rs) continue;
      const std::string root =
          store::parse_store_spec(st.grid->store.dir);
      if (marked.insert(root).second) {
        inprogress.push_back(std::make_unique<store::InProgressGuard>(root));
      }
    }
  }

  common::Timer timer;
  std::mutex err_mu;
  std::vector<std::string> errors;
  std::atomic<int> done{0};
  worker_stats_.assign(static_cast<std::size_t>(parallel), WorkerStats{});
  // A failed scenario stops further claims (in-flight scenarios finish,
  // then run() throws) — a deterministic error affecting every cell
  // must not burn hours draining the rest of the grid first.
  std::atomic<bool> failed{false};
  const auto run_one = [&](const Claim& claim, int worker) {
    static obs::Counter& computed_cells = obs::counter("sweep.cells.computed");
    static obs::Counter& failed_cells = obs::counter("sweep.cells.failed");
    static obs::Counter& put_ns = obs::counter("sweep.store.put.ns");
    static obs::Counter& put_count = obs::counter("sweep.store.put.count");
    GridState& st = gs[static_cast<std::size_t>(claim.grid)];
    const std::size_t idx = static_cast<std::size_t>(claim.index);
    const Scenario& scenario = st.grid->scenarios[idx];
    // One span per computed cell, on the claiming worker's track; the
    // args are exactly what an operator needs to find the cell again
    // (bench, key, fingerprint prefix) plus the schedule facts (worker,
    // cached=false — cached cells replay during triage, not here) and
    // whether it retrains (for how many epochs). Its "eval" child holds
    // the phase spans: prune, retrain.epoch (one per epoch) and
    // faulty_eval.
    obs::TraceSpan cell_span("sweep", "cell");
    if (obs::trace_enabled()) {
      cell_span.arg("bench", st.label);
      cell_span.arg("key", scenario.key);
      if (!st.fps[idx].empty()) {
        cell_span.arg("fingerprint", st.fps[idx].substr(0, 16));
      }
      cell_span.arg("worker", worker);
      cell_span.arg("cached", false);
      cell_span.arg("retrain", scenario.retrain);
      if (scenario.retrain) cell_span.arg("epochs", scenario.epochs);
    }
    common::Timer t;
    const char* status = "";
    try {
      ScenarioResult r;
      {
        obs::TraceSpan eval_span("sweep", "eval");
        r = st.grid->fn(scenario, ctx_);
      }
      r.scenario = scenario;
      r.fingerprint = st.fps[idx];
      r.seconds = t.seconds();
      r.provenance = make_provenance();
      if (st.rs) {
        obs::TraceSpan put_span("store", "put");
        obs::ScopedTimer timed(put_ns, put_count);
        // Plug-pull points bracketing the cell's publish: a kill before
        // loses exactly this (unpublished) cell to recompute on resume;
        // a kill after must lose nothing — the paid work is durable.
        FALVOLT_PTP(io::FaultSensitivity::kHigh);
        st.rs->put(st.fps[idx], encode_scenario_result(r));
        FALVOLT_PTP();
      }
      st.table.put(idx, std::move(r));
      computed_cells.add(1);
    } catch (const std::exception& e) {
      failed.store(true);
      failed_cells.add(1);
      status = " FAILED";
      {
        std::lock_guard<std::mutex> lock(err_mu);
        errors.push_back(st.label + ": " + scenario.key + ": " + e.what());
      }
    }
    // Each worker slot writes only its own entry — no lock needed.
    WorkerStats& ws = worker_stats_[static_cast<std::size_t>(worker)];
    ws.cells += 1;
    ws.busy_seconds += t.seconds();
    // Live progress goes to stderr in completion order (retraining
    // grids run for hours otherwise silent); the deterministic
    // per-scenario logs still print to stdout in scenario order below.
    std::fprintf(stderr, "[sweep %d/%d] %s:%s (%.1f s)%s\n",
                 done.fetch_add(1) + 1, np, st.label.c_str(),
                 scenario.key.c_str(), t.seconds(), status);
  };

  // Workers claim one cell at a time from the shared counter:
  // parallel_for's chunk heuristic would batch several cells per claim
  // on large grids, and cells are far too coarse and heterogeneous for
  // that — a cheap eval cell must not wait behind a slow retraining
  // cell in the same chunk.
  std::atomic<int> next{0};
  const auto drain = [&](int w) {
    while (!failed.load()) {
      const int i = next.fetch_add(1);
      if (i >= np) break;
      run_one(queue[static_cast<std::size_t>(i)], w);
    }
  };
  if (parallel <= 1) {
    drain(0);
  } else {
    // Scenario bodies run on pool workers, so nested GEMM parallel_for
    // calls execute inline — the sweep never runs more than `parallel`
    // threads of compute at once.
    compute::ThreadPool pool(parallel);
    pool.parallel_for(0, parallel, 1, [&](int wb, int we) {
      for (int w = wb; w < we; ++w) {
        if (obs::trace_enabled()) {
          obs::set_trace_thread_name("worker " + std::to_string(w));
        }
        drain(w);
      }
    });
  }
  if (!errors.empty()) {
    std::string what =
        "sweep failed (" + std::to_string(errors.size()) + " scenario(s))";
    for (const std::string& e : errors) {
      what += "\n  ";
      what += e;
    }
    throw std::runtime_error(what);
  }
  const double total_seconds = timer.seconds();

  // Buffered logs, grid-major in scenario order: deterministic under
  // any worker count (replayed cells print the log recorded when they
  // were first computed).
  std::vector<ResultTable> tables;
  tables.reserve(gs.size());
  for (GridState& st : gs) {
    st.table.total_seconds_ = total_seconds;
    for (std::size_t i = 0; i < st.table.size(); ++i) {
      if (st.table.is_filled(i) && !st.table.rows()[i].log.empty()) {
        std::fputs(st.table.rows()[i].log.c_str(), stdout);
      }
    }
    tables.push_back(std::move(st.table));
  }
  return tables;
}

}  // namespace falvolt::core
