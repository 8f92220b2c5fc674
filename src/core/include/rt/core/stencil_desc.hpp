#pragma once
// Stencil descriptors: the "compiler front-end" of the library.  The paper
// notes (Section 2.3) that "compilers can derive such a cost function
// directly from the loop nest" — the trim amounts m, n are the magnitudes
// of the largest subscript differences per dimension, and the array tile
// depth is the K-extent of the reference window.  A StencilDesc is that
// reference window, from which derive_spec() computes the StencilSpec the
// planner needs; rt::kernels::apply_stencil executes any descriptor.

#include <string>
#include <vector>

#include "rt/core/stencil_spec.hpp"

namespace rt::core {

/// One array reference: offset from the loop indices plus a coefficient.
struct StencilPoint : Offset {
  double w = 0.0;  ///< coefficient applied to this neighbour
  friend constexpr bool operator==(const StencilPoint&,
                                   const StencilPoint&) = default;
};

/// A full stencil: out(i,j,k) = sum_q w_q * in(i+di_q, j+dj_q, k+dk_q).
struct StencilDesc {
  std::string name = "stencil";
  std::vector<StencilPoint> points;

  /// StencilSpec::span over the points (name "derived"): trims, array
  /// tile depth and halo exactly as Section 2.3 prescribes.  Throws
  /// std::invalid_argument on an empty stencil.
  StencilSpec derive_spec() const;

  /// Number of source references per output point.
  std::size_t arity() const { return points.size(); }

  // --- the paper's stencils, as descriptors built from their term
  // tables (rt/core/stencil_terms.hpp), points in table order ---
  /// 6-point Jacobi: w on each of the six faces.
  static StencilDesc jacobi6(double w = terms::kJacobiC);
  /// Full 27-point stencil with class coefficients (centre, face, edge,
  /// corner) — RESID's A operator and PSINV's S operator have this shape.
  /// Points: the centre, then the faces, edges and corners.
  static StencilDesc full27(double c0, double c1, double c2, double c3,
                            std::string name = "full27");
};

}  // namespace rt::core
