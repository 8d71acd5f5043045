// Fig. 5a — classification accuracy vs stuck-at fault bit location.
//
// The grid, its scenario function and the figure report live in
// bench/grids/fig5a_grid.cpp; bench::run_figure does the rest.

#include "grids/grids.h"

int main(int argc, char** argv) {
  return falvolt::bench::run_figure(argc, argv, "fig5a_bit_position");
}
