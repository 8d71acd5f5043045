// Fig. 6 — optimized per-layer threshold voltages returned by FalVolt.
//
// The grid, its scenario function and the figure report live in
// bench/grids/fig6_grid.cpp; bench::run_figure does the rest.

#include "grids/grids.h"

int main(int argc, char** argv) {
  return falvolt::bench::run_figure(argc, argv, "fig6_vth_layers");
}
