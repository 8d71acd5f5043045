#pragma once
// The registered scenario grids (bench/grids/) and the figure driver.
//
// Each <grid>_grid.cpp is the single owner of its grid: axes, scenario-key
// scheme, scenario function and — for a figure grid — the report that
// turns the filled table into the figure's CSV and printed tables. The
// figure binaries run one grid through run_figure(); sweep_fleet runs the
// registered GridDefs directly, so both address exactly the same cells.

#include <string>

namespace falvolt::bench {

/// Register every grid — the seven figure benches, the design-choice
/// ablation, and the example-derived workloads — into
/// core::GridRegistry::instance(). Idempotent — every driver calls it
/// first.
void register_all_grids();

/// A figure binary's whole main(): parse the common and `grid` flags,
/// sweep the grid (store replay, --shard, --list-scenarios), then write
/// the figure CSV through the grid's report, the sweep JSON summary and
/// the closing note. Returns the process exit code.
int run_figure(int argc, const char* const* argv, const std::string& grid);

namespace chip_salvage {
/// Deterministic defect count of one die of the chip-salvage lot.
int chip_defects(int chip, double defect_rate, int total_pes);
}  // namespace chip_salvage

}  // namespace falvolt::bench
