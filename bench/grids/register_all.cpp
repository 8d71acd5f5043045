#include "grids/grids.h"

namespace falvolt::bench {

// Each grid file defines its own registration; this is the only caller.
namespace fig2 { void register_grid(); }
namespace fig5a { void register_grid(); }
namespace fig5b { void register_grid(); }
namespace fig5c { void register_grid(); }
namespace fig6 { void register_grid(); }
namespace fig7 { void register_grid(); }
namespace fig8 { void register_grid(); }
namespace ablation { void register_grid(); }
namespace chip_salvage { void register_grid(); }
namespace gesture { void register_grid(); }

void register_all_grids() {
  // Registration order = listing order in the fleet driver.
  static const bool done = [] {
    fig2::register_grid();
    fig5a::register_grid();
    fig5b::register_grid();
    fig5c::register_grid();
    fig6::register_grid();
    fig7::register_grid();
    fig8::register_grid();
    ablation::register_grid();
    chip_salvage::register_grid();
    gesture::register_grid();
    return true;
  }();
  (void)done;
}

}  // namespace falvolt::bench
