// Reproduces paper Table 1: Euc3D non-conflicting array tiles for a
// 200x200xM array and a 16K (2048-element) direct-mapped cache, plus the
// Section 3.3 cost-based selection.

#include <iostream>

#include "rt/bench/options.hpp"
#include "rt/bench/table.hpp"
#include "rt/core/conflict.hpp"
#include "rt/core/euc3d.hpp"

int main(int argc, char** argv) {
  // The problem is fixed; parsing still rejects unknown flags (exit 2)
  // and honours --help and --csv.
  rt::bench::parse_options(argc, argv);
  using namespace rt::core;
  const long cs = 2048, di = 200, dj = 200;

  std::cout << "Table 1: Euc3D non-conflicting array tiles "
               "(200x200xM array, 16K cache = 2048 doubles)\n\n";
  std::vector<std::string> tk_row{"TK"}, tj_row{"TJ"}, ti_row{"TI"},
      ok_row{"conflict-free"};
  for (int tk = 1; tk <= 4; ++tk) {
    for (const ArrayTile& t : euc3d_enumerate(cs, di, dj, tk)) {
      tk_row.push_back(std::to_string(t.tk));
      tj_row.push_back(std::to_string(t.tj));
      ti_row.push_back(std::to_string(t.ti));
      ok_row.push_back(is_conflict_free(cs, di, dj, t.ti, t.tj, t.tk) ? "yes"
                                                                      : "NO");
    }
  }
  rt::bench::print_table(tk_row, {tj_row, ti_row, ok_row});

  const StencilSpec spec = StencilSpec::jacobi3d();
  const Euc3dResult sel = euc3d(cs, di, dj, spec);
  std::cout << "\nSection 3.3 selection for Jacobi (trim 2, ATD 3):\n"
            << "  selected iteration tile (TI,TJ) = (" << sel.tile.ti << ","
            << sel.tile.tj << ")  from array tile (TI,TJ,TK) = ("
            << sel.array_tile.ti << "," << sel.array_tile.tj << ","
            << sel.array_tile.tk << ")  cost = "
            << rt::bench::fmt(sel.tile_cost, 4) << "\n"
            << "  paper: (22,13) from (24,15,3), cost 1.2587\n";
  return 0;
}
