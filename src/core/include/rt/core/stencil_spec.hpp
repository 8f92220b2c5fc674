#pragma once
// Per-stencil parameters the tiling algorithms need (paper Sections 2.2-2.3):
//  * trim_i/trim_j — how much the iteration tile must shrink relative to the
//    array tile in each tiled dimension ("m" and "n" in the cost function);
//    for a +/-1 stencil both are 2.
//  * atd — minimum Array Tile Depth: how many adjacent planes must be
//    conflict-free in cache (3 for Jacobi/RESID, 4 for fused red-black SOR).
//  * halo — stencil radius: boundary layers kept fixed per side, and the
//    plane dependency distance the temporal planner skews by (1 for every
//    +/-1 stencil in this repo).
// The paper kernels' specs are span()s of their term tables
// (rt/core/stencil_terms.hpp), the rule StencilDesc::derive_spec applies to
// any reference window.

#include <algorithm>
#include <string_view>

#include "rt/core/stencil_terms.hpp"

namespace rt::core {

struct StencilSpec {
  std::string_view name = "stencil";
  long trim_i = 2;  ///< "m": array-tile I extent minus iteration-tile extent
  long trim_j = 2;  ///< "n": same for J
  int atd = 3;      ///< minimum array tile depth (planes held in cache)
  long halo = 1;    ///< stencil radius (boundary layers per side)

  /// The §2.3 rule over a reference window, the centre plus every offset
  /// (anything with di, dj, dk) of @p classes: each trim is "the magnitude
  /// of the largest differences between subscripts" in its dimension, the
  /// array tile depth is the window's K extent, the halo its largest
  /// |offset|.
  template <class... Classes>
  static constexpr StencilSpec span(std::string_view name,
                                    const Classes&... classes) {
    int lo[3] = {}, hi[3] = {};
    const auto widen = [&](const auto& cls) {
      for (const auto& p : cls) {
        const int d[3] = {p.di, p.dj, p.dk};
        for (int x = 0; x < 3; ++x) {
          lo[x] = std::min(lo[x], d[x]);
          hi[x] = std::max(hi[x], d[x]);
        }
      }
    };
    (widen(classes), ...);
    return {name, hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2] + 1,
            std::max({-lo[0], hi[0], -lo[1], hi[1], -lo[2], hi[2]})};
  }

  static constexpr StencilSpec jacobi3d() {
    return span("jacobi3d", terms::kJacobiFaces);
  }
  /// The update's window spans three planes, but the fused red-black
  /// schedule (paper Fig. 12) updates red plane k+1 before black plane k,
  /// so its array tile holds planes k-1 .. k+2: one more than the window.
  static constexpr StencilSpec redblack3d() {
    StencilSpec s = span("redblack3d", terms::kRedBlackFaces);
    s.atd += 1;
    return s;
  }
  static constexpr StencilSpec resid27() {
    return span("resid27", terms::k27Faces, terms::k27Edges,
                terms::k27Corners);
  }
  static constexpr StencilSpec psinv27() {
    return span("psinv27", terms::k27Faces, terms::k27Edges,
                terms::k27Corners);
  }
};

}  // namespace rt::core
