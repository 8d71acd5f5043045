// Fig. 5c — classification accuracy vs systolic array size.
//
// The grid, its scenario function and the figure report live in
// bench/grids/fig5c_grid.cpp; bench::run_figure does the rest.

#include "grids/grids.h"

int main(int argc, char** argv) {
  return falvolt::bench::run_figure(argc, argv, "fig5c_array_size");
}
