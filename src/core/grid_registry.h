#pragma once
// Registry of the figure benches' scenario grids.
//
// A GridDef captures what a driver needs to run a bench's sweep: the
// bench's flag schema, its grid construction, and its scenario function
// — plus, for the figure grids, the figure's presentation (banner label,
// CSV columns, report, closing note). Every grid is defined and
// registered in bench/grids/; the figure binaries run their one grid
// through bench::run_figure and sweep_fleet runs many, so a figure run
// standalone and the same figure run by the fleet execute literally the
// same grid-building and cell-computing code — which is what makes their
// store fingerprints (and therefore their tables) interchangeable.

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/cli.h"
#include "core/sweep.h"
#include "io/csv.h"

namespace falvolt::core {

/// One bench's grid, self-describing enough for a foreign driver.
struct GridDef {
  /// Canonical bench name — the store's bench id (e.g.
  /// "fig5b_fault_count"); also the registry key.
  std::string name;
  /// One-line description for listings.
  std::string title;
  /// Registers the bench-SPECIFIC flags; the caller adds the common set
  /// (bench::add_common_flags) first.
  std::function<void(common::CliFlags&)> add_flags;
  /// The grid's full dataset axis (before any --datasets subsetting).
  /// Drivers sweeping many grids use it to SKIP a grid whose axis does
  /// not intersect a dataset filter — running the grid's own builder
  /// with a foreign filter is an error by the strict-subset contract
  /// (bench::dataset_list), which is right for a bench asked for
  /// explicitly but wrong for "every grid that applies".
  std::vector<DatasetKind> datasets;
  /// Flags that shape only post-sweep aggregation, never a cell value —
  /// exempted from cell fingerprints (e.g. fig8's --target-drop).
  std::set<std::string> aggregation_only;
  /// Builds the scenario grid from the parsed flags. Cells should carry
  /// an honest cost estimate for the fleet's cost-ordered queue: set
  /// Scenario::retrain/epochs (the default estimate scales with them)
  /// or tag Scenario::cost_hint explicitly when the grid knows better
  /// (e.g. fig5c derives per-array-size eval cost from
  /// systolic::cost_model). Cost never enters a fingerprint.
  std::function<std::vector<Scenario>(const common::CliFlags&)> scenarios;
  /// Builds the scenario function. `ctx` is the context the running
  /// sweep prepares baselines into (its FleetRunner's context());
  /// the returned closure must own every other value it needs — capture
  /// flag-derived values by value, shared state by shared_ptr — because
  /// the CliFlags it was built from may be gone by the time it runs.
  std::function<ScenarioFn(const common::CliFlags&, const SweepContext&)>
      scenario_fn;

  // The figure presentation: all four set for a grid with a figure
  // binary, all four empty for a fleet-only grid.
  /// Banner label, e.g. "Fig. 5b".
  std::string label;
  /// Header of the figure CSV.
  std::vector<std::string> csv_columns;
  /// Writes the figure's CSV rows and prints its tables. Called on every
  /// table the sweep returns — a shard's partial table too, where it may
  /// write rows but prints tables only when `results.complete()`.
  std::function<void(const common::CliFlags&, const ResultTable&,
                     io::CsvWriter&)>
      report;
  /// Closing "Expected shape" note, printed verbatim after the report.
  std::string note;
};

/// Process-global name -> GridDef map. Grids register at startup
/// (bench::register_all_grids()); drivers enumerate or look up by name.
class GridRegistry {
 public:
  static GridRegistry& instance();

  /// Registers a grid. Throws std::logic_error on a duplicate name, a
  /// def with any grid callback missing, or a half-filled presentation.
  void add(GridDef def);

  /// nullptr when `name` is not registered.
  const GridDef* find(const std::string& name) const;
  /// Throws std::out_of_range, listing the registered names, on a miss.
  const GridDef& get(const std::string& name) const;

  /// Registered names, in registration order.
  std::vector<std::string> names() const;
  std::size_t size() const { return defs_.size(); }

 private:
  std::vector<GridDef> defs_;
};

}  // namespace falvolt::core
