// Ablations of FalVolt's design choices (threshold granularity, re-zero
// cadence, surrogate gradient, accumulator width).
//
// The grid, its scenario function and the figure report live in
// bench/grids/ablation_grid.cpp; bench::run_figure does the rest.

#include "grids/grids.h"

int main(int argc, char** argv) {
  return falvolt::bench::run_figure(argc, argv, "ablation_falvolt");
}
