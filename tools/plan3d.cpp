// plan3d: command-line tiling planner.
//
// Give it your cache and your array, get back what every transformation of
// the paper would do — tile sizes, pads, cost, conflict-freedom — without
// writing any code.
//
// Usage:
//   plan3d --di=341 --dj=341 [--cache-bytes=16384] [--elem-bytes=8]
//          [--trim-i=2] [--trim-j=2] [--atd=3]
//
// Example output is a Table-2-shaped plan listing.

#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "rt/bench/table.hpp"
#include "rt/core/conflict.hpp"
#include "rt/core/euc3d.hpp"
#include "rt/core/plan.hpp"

namespace {
long arg_long(int argc, char** argv, const char* name, long def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atol(argv[i] + prefix.size());
    }
  }
  return def;
}
}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::cout << "usage: plan3d --di=N --dj=N [--cache-bytes=16384] "
                   "[--elem-bytes=8] [--trim-i=2] [--trim-j=2] [--atd=3]\n";
      return 0;
    }
  }
  const long di = arg_long(argc, argv, "di", 0);
  const long dj = arg_long(argc, argv, "dj", di);
  const long cache_bytes = arg_long(argc, argv, "cache-bytes", 16 * 1024);
  const long elem_bytes = arg_long(argc, argv, "elem-bytes", 8);
  rt::core::StencilSpec spec;
  spec.trim_i = arg_long(argc, argv, "trim-i", 2);
  spec.trim_j = arg_long(argc, argv, "trim-j", 2);
  spec.atd = static_cast<int>(arg_long(argc, argv, "atd", 3));
  if (di <= 0 || dj <= 0 || elem_bytes <= 0 || cache_bytes < elem_bytes) {
    std::cerr << "plan3d: need --di (and optionally --dj); see --help\n";
    return 2;
  }
  // The planners reject some geometries (e.g. a cache whose size is not
  // a power of two) by throwing; report that instead of aborting.
  try {
    const long cs = cache_bytes / elem_bytes;

    std::cout << "Array " << di << " x " << dj << " x M, cache " << cache_bytes
              << " B direct-mapped (" << cs << " elements), stencil trim ("
              << spec.trim_i << "," << spec.trim_j << ") ATD " << spec.atd
              << "\n\n";

    std::vector<std::string> header{"transform", "tile (TI,TJ)", "padded dims",
                                    "pad elems/plane", "cost",
                                    "conflict-free"};
    std::vector<std::vector<std::string>> rows;
    for (rt::core::Transform tr : rt::core::all_transforms()) {
      const auto p = rt::core::plan_for(tr, cs, di, dj, spec);
      const bool cf =
          !p.tiled ||
          rt::core::is_conflict_free(cs, p.dip, p.djp, p.tile.ti + spec.trim_i,
                                     p.tile.tj + spec.trim_j, spec.atd);
      rows.push_back(
          {std::string(rt::core::transform_name(tr)),
           p.tiled ? "(" + std::to_string(p.tile.ti) + "," +
                         std::to_string(p.tile.tj) + ")"
                   : "-",
           std::to_string(p.dip) + "x" + std::to_string(p.djp),
           std::to_string(p.dip * p.djp - di * dj),
           p.tiled ? rt::bench::fmt(rt::core::cost(p.tile, spec), 4) : "-",
           p.tiled ? (cf ? "yes" : "NO") : "-"});
    }
    rt::bench::print_table(header, rows);

    const auto sel = rt::core::euc3d(cs, di, dj, spec);
    std::cout << "\nEuc3D detail: array tile (" << sel.array_tile.ti << ","
              << sel.array_tile.tj << "," << sel.array_tile.tk << ") -> "
              << "iteration tile (" << sel.tile.ti << "," << sel.tile.tj
              << ")\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
