// Fig. 2 — retraining accuracy vs a fixed threshold voltage.
//
// The grid, its scenario function and the figure report live in
// bench/grids/fig2_grid.cpp; bench::run_figure does the rest.

#include "grids/grids.h"

int main(int argc, char** argv) {
  return falvolt::bench::run_figure(argc, argv, "fig2_vth_sweep");
}
