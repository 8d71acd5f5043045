// Fig. 7 — mitigation comparison: FaP vs FaPIT vs FalVolt.
//
// The grid, its scenario function and the figure report live in
// bench/grids/fig7_grid.cpp; bench::run_figure does the rest.

#include "grids/grids.h"

int main(int argc, char** argv) {
  return falvolt::bench::run_figure(argc, argv, "fig7_mitigation");
}
