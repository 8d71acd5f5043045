// sweep_fleet — run several figure grids as ONE cross-bench sweep.
//
// Every registered figure grid (core::GridRegistry, populated by
// bench/grids/) is enumerated, its cells fingerprinted exactly as the
// standalone bench would fingerprint them, and the union of all pending
// cells run through one work-stealing queue of N workers against one
// shared store: a worker that finishes fig5b's cheap eval cells
// immediately steals fig8's expensive retrain cells instead of idling,
// and a dataset baseline is trained (or cache-loaded) once per fleet
// run no matter how many grids need it.
//
// Because fingerprints are shared, the store is interchangeable with
// per-bench runs: after a fleet run, `fig5b_fault_count --store <dir>`
// replays every cell (cells_computed: 0) and emits its figure tables
// byte-identical to a standalone run — the fleet computes values; each
// figure's presentation is its grid's report (bench/grids/), which the
// figure binary runs through bench::run_figure. Per-grid shard specs
// compose (--shard i/n partitions every grid), so fleets can span
// machines and be unioned with sweep_merge like any other sweep. Within one
// invocation every cell runs in this process: the N workers are threads
// of one core::FleetRunner.
//
//   sweep_fleet --store fleet_store --workers 8 --fast
//     --grids fig5b_fault_count,fig2_vth_sweep
//     --set fig5b_fault_count.eval-samples=24,fig2_vth_sweep.epochs=1
//
// Common flags (--fast, --seed, --datasets, --repeats, ...) apply to
// every grid; bench-specific flags are set per grid with --set.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "common/timer.h"
#include "core/grid_registry.h"
#include "grids/grids.h"
#include "io/env.h"
#include "store/result_store.h"
#include "store/store_api.h"

namespace fb = falvolt::bench;
using namespace falvolt;

namespace {

// Per-grid flag overrides from --set "bench.flag=value[,...]". Flags
// the fleet itself manages (the shared store, shard spec, worker
// counts) and the shared workload identity (fast/seed — the fleet has
// ONE baseline context) must not be overridden per grid: a diverted
// --store, for example, would silently publish a grid's records away
// from the advertised shared store.
std::map<std::string, std::vector<std::string>> parse_overrides(
    const std::string& spec) {
  static const std::set<std::string> kFleetManaged = {
      "store", "shard",          "fast",       "seed",
      "threads", "sweep-parallel", "sweep-json", "list-scenarios",
      "substituters"};
  std::map<std::string, std::vector<std::string>> out;
  for (const std::string& entry : fb::split_list(spec)) {
    const std::size_t dot = entry.find('.');
    const std::size_t eq = entry.find('=', dot == std::string::npos ? 0 : dot);
    if (dot == std::string::npos || eq == std::string::npos || dot == 0 ||
        eq <= dot + 1) {
      throw std::invalid_argument(
          "--set entries must be bench.flag=value, got '" + entry + "'");
    }
    const std::string flag = entry.substr(dot + 1, eq - dot - 1);
    // Every exec-table flag (telemetry, faults) is fleet-managed by
    // definition: one table keeps this list honest.
    if (kFleetManaged.count(flag) || fb::is_exec_flag(flag)) {
      throw std::invalid_argument(
          "--set must not override fleet-managed flag --" + flag +
          " per grid (set it at the fleet level instead)");
    }
    out[entry.substr(0, dot)].push_back("--" + entry.substr(dot + 1));
  }
  return out;
}

// One grid, fully resolved from the fleet command line.
struct FleetGridSpec {
  const core::GridDef* def = nullptr;
  common::CliFlags cli;
  std::vector<core::Scenario> scenarios;
  core::SweepStoreOptions store;
};

}  // namespace

int main(int argc, char** argv) try {
  fb::register_all_grids();
  const core::GridRegistry& registry = core::GridRegistry::instance();

  common::CliFlags cli("sweep_fleet");
  fb::add_common_flags(cli);
  cli.add_int("workers", 0,
              "concurrent cells across ALL grids (overrides "
              "--sweep-parallel when > 0; 0 = --sweep-parallel resolution)");
  cli.add_string("grids", "all",
                 "comma list of registered figure grids to sweep "
                 "(all = every registered grid)");
  cli.add_string("set", "",
                 "per-grid bench-specific flag overrides, "
                 "'bench.flag=value[,bench.flag=value...]' (e.g. "
                 "fig5b_fault_count.eval-samples=24)");
  cli.add_string("json", "",
                 "fleet summary JSON path ('' = disabled). Per-bench "
                 "sweep JSONs come from warm bench re-runs against the "
                 "fleet store");
  if (!cli.parse(argc, argv)) return 0;
  // --sweep-json is a common bench flag, but the fleet has no per-bench
  // sweep summary to write: reject it before any work instead of
  // accepting it and writing nothing.
  if (!cli.get_string("sweep-json").empty()) {
    std::fprintf(stderr,
                 "sweep_fleet: --sweep-json is not supported; use --json for "
                 "the fleet summary (per-bench sweep JSONs come from warm "
                 "bench re-runs against the fleet store)\n");
    return 1;
  }
  fb::ExecScope obs_scope(cli);

  const std::string store_dir = fb::resolve_store_dir(cli);
  if (store_dir.empty()) {
    std::fprintf(stderr,
                 "sweep_fleet: --store (or $FALVOLT_STORE) is required — "
                 "the whole point of a fleet is the shared store\n");
    return 1;
  }

  // Grid selection, registration order preserved for "all". An unknown
  // name is a hard error up front — a typo'd --grids must not silently
  // sweep the wrong subset for hours.
  const bool implicit_all = cli.get_string("grids") == "all";
  const std::vector<core::DatasetKind> dataset_filter =
      fb::parse_dataset_spec(cli.get_string("datasets"));
  std::vector<std::string> names;
  if (implicit_all) {
    names = registry.names();
    // A dataset filter SKIPS non-intersecting grids of the implicit
    // "all" selection (e.g. --datasets mnist skips the DVS-only gesture
    // grid) — running their builders would trip the per-bench
    // strict-subset error, which is right only for a grid the user
    // named explicitly.
    const std::vector<core::DatasetKind>& filter = dataset_filter;
    if (!filter.empty()) {
      std::vector<std::string> kept;
      for (const std::string& name : names) {
        const std::vector<core::DatasetKind>& axis =
            registry.get(name).datasets;
        const bool overlaps =
            axis.empty() ||
            std::any_of(axis.begin(), axis.end(), [&](core::DatasetKind k) {
              return std::find(filter.begin(), filter.end(), k) !=
                     filter.end();
            });
        if (overlaps) {
          kept.push_back(name);
        } else {
          std::fprintf(stderr,
                       "[fleet] skipping %s: its dataset axis has no "
                       "overlap with --datasets %s\n",
                       name.c_str(), cli.get_string("datasets").c_str());
        }
      }
      names = std::move(kept);
    }
  } else {
    for (const std::string& name : fb::split_list(cli.get_string("grids"))) {
      if (!registry.find(name)) {
        std::string known;
        for (const std::string& n : registry.names()) {
          known += known.empty() ? "" : ", ";
          known += n;
        }
        std::fprintf(stderr,
                     "sweep_fleet: --grids names unknown grid '%s' "
                     "(registered: %s)\n",
                     name.c_str(), known.c_str());
        return 1;
      }
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);  // a repeated name must not double-compute
      }
    }
  }
  if (names.empty()) {
    std::fprintf(stderr, "sweep_fleet: no grids selected\n");
    return 1;
  }
  std::map<std::string, std::vector<std::string>> overrides =
      parse_overrides(cli.get_string("set"));
  for (const auto& [bench, tokens] : overrides) {
    (void)tokens;
    if (std::find(names.begin(), names.end(), bench) == names.end()) {
      std::fprintf(stderr,
                   "sweep_fleet: --set names '%s', which is not among the "
                   "selected grids\n",
                   bench.c_str());
      return 1;
    }
  }

  // Common flags forwarded verbatim to every grid (the "--name=value"
  // form survives empty values). Derived from the fleet's own flag set
  // minus the fleet-only/fleet-managed ones, so a common flag added
  // later is forwarded automatically — and a future fleet-only flag
  // missing from this denylist fails each grid's parse loudly
  // ("unknown flag") instead of being dropped. A grid parses common +
  // its own flags, then its --set overrides, so its fingerprint config
  // is exactly what the standalone bench would compute for the same
  // invocation.
  static const std::set<std::string> kNotForwarded = {
      "store",     // forwarded below as the resolved shared store dir
      "datasets",  // forwarded per grid, narrowed to the grid's axis
      "sweep-json", "list-scenarios",  // fleet-handled, not per-grid
      "workers", "grids", "set", "json"};  // fleet-only flags
  std::vector<std::string> forwards;
  for (const auto& [flag, value] : cli.items()) {
    // Exec-table flags (telemetry, fault injection) are one per fleet
    // process by definition — never forwarded.
    if (!kNotForwarded.count(flag) && !fb::is_exec_flag(flag)) {
      forwards.push_back("--" + flag + "=" + value);
    }
  }
  forwards.push_back("--store=" + store_dir);

  // Per-grid --datasets forward. Under the implicit "all" selection a
  // partially overlapping grid gets the INTERSECTION of the filter with
  // its axis (e.g. --datasets mnist,nmnist reaches fig2 — whose axis is
  // mnist+dvs — as just "mnist"): the fleet sweeps the cells that
  // apply instead of tripping the grid's strict-subset error. An
  // explicitly named grid gets the raw spec, keeping the standalone
  // contract that asking a bench for a foreign dataset is an error.
  const auto datasets_for = [&](const core::GridDef& def) -> std::string {
    const std::string& raw = cli.get_string("datasets");
    if (!implicit_all || dataset_filter.empty() || def.datasets.empty()) {
      return raw;
    }
    std::string spec;
    for (const core::DatasetKind kind : def.datasets) {
      if (std::find(dataset_filter.begin(), dataset_filter.end(), kind) !=
          dataset_filter.end()) {
        spec += spec.empty() ? "" : ",";
        spec += fb::dataset_flag_token(kind);
      }
    }
    return spec;  // non-empty: zero-overlap grids were skipped above
  };

  const core::WorkloadOptions fleet_opts = fb::workload_options(cli);
  std::vector<FleetGridSpec> specs;
  for (const std::string& name : names) {
    const core::GridDef& def = registry.get(name);
    FleetGridSpec spec{&def, common::CliFlags(def.name), {}, {}};
    fb::add_common_flags(spec.cli);
    def.add_flags(spec.cli);
    std::vector<std::string> args = {def.name};
    args.insert(args.end(), forwards.begin(), forwards.end());
    args.push_back("--datasets=" + datasets_for(def));
    const auto it = overrides.find(name);
    if (it != overrides.end()) {
      args.insert(args.end(), it->second.begin(), it->second.end());
    }
    std::vector<const char*> argv_g;
    argv_g.reserve(args.size());
    for (const std::string& a : args) argv_g.push_back(a.c_str());
    try {
      spec.cli.parse(static_cast<int>(argv_g.size()), argv_g.data());
      spec.scenarios = def.scenarios(spec.cli);
      spec.store =
          fb::store_options(spec.cli, def.name, def.aggregation_only);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sweep_fleet: grid %s: %s\n", name.c_str(),
                   e.what());
      return 1;
    }
    specs.push_back(std::move(spec));
  }

  // Shard-planning dry run: the full cross-bench cell listing, computed
  // with the same fingerprints the sweep would use. Like the benches'
  // --list-scenarios it never creates store directories.
  if (cli.get_bool("list-scenarios")) {
    std::unique_ptr<store::StoreApi> rs;
    if (store::store_spec_exists(store_dir)) {
      rs = store::open_store(store_dir,
                             fb::split_list(cli.get_string("substituters")),
                             /*create=*/false);
    }
    std::size_t total = 0;
    for (const FleetGridSpec& spec : specs) total += spec.scenarios.size();
    std::printf("# %zu grid(s), %zu cell(s), store %s\n", specs.size(),
                total, store_dir.c_str());
    std::printf("%-5s %-6s %-6s %-16s %s\n", "idx", "shard", "store",
                "fingerprint", "bench:key");
    std::size_t index = 0;
    for (const FleetGridSpec& spec : specs) {
      index = fb::list_scenario_rows(spec.store, fleet_opts, spec.scenarios,
                                     rs.get(), spec.def->name, index);
    }
    return 0;
  }

  // Probe the summary's directory BEFORE the sweep: an unwritable --json
  // must fail now, not after hours of retraining (same fail-fast contract
  // as the figure driver's CSV writer). Nothing is created at the path, so
  // a run that dies mid-sweep leaves any previous summary intact and no
  // new file.
  if (!cli.get_string("json").empty()) {
    if (!io::can_publish(cli.get_string("json"))) {
      std::fprintf(stderr, "sweep_fleet: cannot open %s\n",
                   cli.get_string("json").c_str());
      return 1;
    }
  }

  core::WorkloadOptions opts = fleet_opts;
  if (cli.get_int("workers") > 0) {
    opts.sweep_parallel = static_cast<int>(cli.get_int("workers"));
  }

  core::FleetRunner fleet(opts);
  fleet.set_on_baseline(fb::print_baseline);
  for (FleetGridSpec& spec : specs) {
    fleet.add_grid(core::FleetGrid{
        spec.store, spec.scenarios,
        spec.def->scenario_fn(spec.cli, fleet.context())});
  }

  std::printf("=== sweep_fleet ===\n%zu grid(s) against store %s "
              "(cost-ordered queue)\n\n",
              specs.size(), store_dir.c_str());
  const std::vector<core::ResultTable> tables = fleet.run();

  std::size_t computed = 0, cached = 0, absent = 0;
  for (std::size_t g = 0; g < tables.size(); ++g) {
    const core::ResultTable& t = tables[g];
    computed += t.computed_cells();
    cached += t.cached_cells();
    absent += t.absent_cells();
    std::printf("[fleet] %-22s %3zu cell(s): %zu computed, %zu cached, "
                "%zu left to other shards\n",
                specs[g].def->name.c_str(), t.size(), t.computed_cells(),
                t.cached_cells(), t.absent_cells());
  }
  const double total_seconds =
      tables.empty() ? 0.0 : tables.front().total_seconds();
  const int run_workers =
      tables.empty() ? 0 : tables.front().sweep_parallel();
  std::printf("[fleet] total: %zu computed, %zu cached, %zu absent in "
              "%.1f s at %d worker(s)\n",
              computed, cached, absent, total_seconds, run_workers);
  // Per-worker tail utilization: the cost-ordered queue exists so no
  // worker shows a near-zero busy fraction while one drains a late
  // retrain cell.
  const std::vector<core::WorkerStats>& workers = fleet.worker_stats();
  for (std::size_t w = 0; w < workers.size(); ++w) {
    std::printf("[fleet] worker %zu: %zu cell(s), %.1f s busy (%.0f%% "
                "utilization)\n",
                w, workers[w].cells, workers[w].busy_seconds,
                total_seconds > 0.0
                    ? 100.0 * workers[w].busy_seconds / total_seconds
                    : 0.0);
  }

  // Auto-merge: a table with no absent cells means the LAST shard just
  // landed — emit the figure CSV straight from the shared store so a
  // sharded fleet needs no manual sweep_merge step. Earlier shards
  // still see foreign cells absent and leave emission to the finisher.
  const store::StoreSpec store_spec = store::parse_store_spec(store_dir);
  bool emitted_tables = false;
  if (store_spec.scheme != "segment") {
    for (std::size_t g = 0; g < tables.size(); ++g) {
      if (!tables[g].complete() || tables[g].size() == 0) continue;
      const std::string table_dir = store_spec.path + "/tables";
      const std::string path = table_dir + "/" + specs[g].def->name + ".csv";
      if (!io::publish_file(path, tables[g].to_csv())) {
        std::fprintf(stderr, "sweep_fleet: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("[fleet] %s complete — table written to %s\n",
                  specs[g].def->name.c_str(), path.c_str());
      emitted_tables = true;
    }
  }
  if (!emitted_tables) {
    std::printf("[fleet] figure tables: re-run each bench with --store %s "
                "(replays every cell) or use sweep_merge\n",
                store_dir.c_str());
  }

  if (!cli.get_string("json").empty()) {
    std::ostringstream out;
    // total_seconds is the cell phase, the time worker utilization is a
    // share of; baseline_seconds is the baseline phase before it.
    out << "{\n  \"driver\": \"sweep_fleet\",\n  \"store\": \""
        << common::json_escape(store_dir)
        << "\",\n  \"run\": {\"workers\": " << run_workers
        << ", \"total_seconds\": " << total_seconds
        << ", \"baseline_seconds\": " << fleet.baseline_seconds()
        << ", \"cells_computed\": " << computed
        << ", \"cells_cached\": " << cached
        << ", \"cells_absent\": " << absent << "},\n  \"workers\": [\n";
    for (std::size_t w = 0; w < workers.size(); ++w) {
      out << "    {\"worker\": " << w << ", \"cells\": " << workers[w].cells
          << ", \"busy_seconds\": " << workers[w].busy_seconds
          << ", \"utilization\": "
          << (total_seconds > 0.0 ? workers[w].busy_seconds / total_seconds
                                  : 0.0)
          << "}" << (w + 1 == workers.size() ? "\n" : ",\n");
    }
    out << "  ],\n  \"grids\": [\n";
    for (std::size_t g = 0; g < tables.size(); ++g) {
      out << "    {\"bench\": \"" << specs[g].def->name
          << "\", \"cells\": " << tables[g].size()
          << ", \"computed\": " << tables[g].computed_cells()
          << ", \"cached\": " << tables[g].cached_cells()
          << ", \"absent\": " << tables[g].absent_cells() << "}"
          << (g + 1 == tables.size() ? "\n" : ",\n");
    }
    // The full metrics registry rides along in the (already volatile)
    // fleet summary: store hit/miss per layer, kernel path mix, pool and
    // sweep counters — everything perf_gate.py and the nightly job
    // summary read. Figure tables and cell records never carry it.
    out << "  ],\n  \"metrics\": "
        << obs::encode_metrics_json(obs::snapshot_metrics(), 2) << "\n}\n";
    if (!io::publish_file(cli.get_string("json"), out.str())) {
      std::fprintf(stderr, "sweep_fleet: cannot write %s\n",
                   cli.get_string("json").c_str());
      return 1;
    }
    std::printf("[fleet] summary JSON written to %s\n",
                cli.get_string("json").c_str());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "sweep_fleet: %s\n", e.what());
  return 1;
}
