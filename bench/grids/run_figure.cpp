// The figure driver: everything a figure binary does around its grid's
// report — flags, telemetry scope, store/shard options, the
// --list-scenarios dry run, the one-grid sweep, the figure CSV and the
// sweep JSON summary. Each bench/fig*.cpp main is one run_figure call.

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/grid_registry.h"
#include "grids/grids.h"

namespace falvolt::bench {

namespace {

/// "" for a whole-grid run, ".shard<i>of<n>" for a shard — shard runs
/// produce partial outputs and must never truncate a complete table a
/// previous full run left in the CWD.
std::string shard_suffix(const common::CliFlags& cli) {
  const auto [index, count] = core::parse_shard_spec(cli.get_string("shard"));
  if (count <= 1) return "";
  return ".shard" + std::to_string(index) + "of" + std::to_string(count);
}

/// Resolved --sweep-json path; empty string disables the summary. The
/// default path is shard-suffixed like the CSV; an explicit --sweep-json
/// is the user's choice and used verbatim.
std::string sweep_json_path(const common::CliFlags& cli,
                            const std::string& bench_name) {
  const std::string& p = cli.get_string("sweep-json");
  if (p == "none") return "";
  return p.empty() ? bench_name + shard_suffix(cli) + "_sweep.json" : p;
}

/// Handle --list-scenarios: print the grid with fingerprints, owning
/// shards, and store status (for shard planning), then tell the caller
/// to exit. A pure dry run: computes nothing, writes no outputs, and —
/// unlike an actual sweep — does not even create the store directories
/// (a store that does not exist yet simply lists every cell as MISS).
bool list_scenarios(const common::CliFlags& cli,
                    const core::SweepStoreOptions& st,
                    const std::vector<core::Scenario>& scenarios) {
  if (!cli.get_bool("list-scenarios")) return false;
  std::unique_ptr<falvolt::store::StoreApi> rs;
  if (!st.dir.empty() && falvolt::store::store_spec_exists(st.dir)) {
    rs = falvolt::store::open_store(st.dir, st.substituters,
                                    /*create=*/false);
  }
  std::printf("# %zu scenario(s), shard %d/%d%s%s\n", scenarios.size(),
              st.shard_index, st.shard_count,
              st.dir.empty() ? "" : ", store ", st.dir.c_str());
  std::printf("%-5s %-6s %-6s %-16s %s\n", "idx", "shard", "store",
              "fingerprint", "key");
  list_scenario_rows(st, workload_options(cli), scenarios, rs.get());
  return true;
}

}  // namespace

int run_figure(int argc, const char* const* argv, const std::string& grid) {
  register_all_grids();
  const core::GridDef& def = core::GridRegistry::instance().get(grid);
  if (!def.report) {
    throw std::invalid_argument("run_figure: grid '" + grid +
                                "' has no figure report");
  }
  common::CliFlags cli(def.name);
  add_common_flags(cli);
  def.add_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  ExecScope obs(cli);

  // Banner, so logs are self-describing.
  std::printf("=== %s ===\n%s\n\n", def.label.c_str(), def.title.c_str());

  const std::vector<core::Scenario> scenarios = def.scenarios(cli);
  const core::SweepStoreOptions store =
      store_options(cli, def.name, def.aggregation_only);
  if (list_scenarios(cli, store, scenarios)) return 0;

  // Outputs open before the sweep so an unwritable CWD fails fast. The
  // summary path is only probed: a run that dies mid-sweep leaves no file
  // there (and a previous summary intact).
  io::CsvWriter csv(def.name + shard_suffix(cli) + ".csv", def.csv_columns);
  const std::string json_path = sweep_json_path(cli, def.name);
  if (!json_path.empty() && !io::can_publish(json_path)) {
    throw std::runtime_error("cannot write sweep summary path " + json_path);
  }

  core::FleetRunner runner(workload_options(cli));
  runner.set_on_baseline(print_baseline);
  runner.add_grid({store, scenarios, def.scenario_fn(cli, runner.context())});
  const core::ResultTable results = std::move(runner.run().front());

  if (!results.complete()) {
    // Only sweep_merge, or a warm re-run against the merged store, can
    // emit the complete figure tables.
    std::printf(
        "\n[sweep] shard %d/%d: %zu cell(s) computed, %zu replayed, %zu "
        "left to other shards — figure tables are emitted by sweep_merge "
        "(or a re-run against the merged store), not by a partial shard.\n",
        results.shard_index(), results.shard_count(),
        results.computed_cells(), results.cached_cells(),
        results.absent_cells());
  }
  def.report(cli, results, csv);
  csv.close();
  if (!json_path.empty()) {
    results.write_json(json_path, def.name);
    std::printf("[sweep] %zu scenarios in %.1f s at sweep-parallel=%d — "
                "JSON summary written to %s\n",
                results.size(), results.total_seconds(),
                results.sweep_parallel(), json_path.c_str());
  }
  std::fputs(def.note.c_str(), stdout);
  return 0;
}

}  // namespace falvolt::bench
