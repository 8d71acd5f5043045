// Fig. 5b — classification accuracy vs number of faulty PEs.
//
// The grid, its scenario function and the figure report live in
// bench/grids/fig5b_grid.cpp; bench::run_figure does the rest.

#include "grids/grids.h"

int main(int argc, char** argv) {
  return falvolt::bench::run_figure(argc, argv, "fig5b_fault_count");
}
