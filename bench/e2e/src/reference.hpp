#pragma once
// The answers every workload is checked against, computed before timing
// with the serial accessor kernels (rt::kernels) and threads=1, simd=off
// MgSolver/SorSolver.  Served and in-process results must match them bit
// for bit: checksum, iteration count and residual.

#include <cstdint>
#include <vector>

#include "rt/multigrid/mg_solver.hpp"
#include "rt/serve/protocol.hpp"

namespace e2e {

struct Reference {
  std::uint64_t checksum = 0;  ///< rt::serve::checksum_region of the result
  int iters = 0;
  double residual = 0;
};

/// The serial answer to one solve request, independent of the planner:
/// kernel paths step unpadded, untiled arrays; MGRID/SOR run serial
/// solvers with no plan.  Transform is ignored, since tiling and padding
/// must not change result bits.
Reference reference_solve(const rt::serve::SolveParams& p);

/// The MGRID time-to-solution procedure, shared by the reference and the
/// timed solver: setup(), then iterate() until the residual norm falls to
/// @p rel_tol of its initial value.  Fills iters and the final residual;
/// the caller checksums the solution outside its timing.  @p setup_ms, if
/// given, receives the setup() time.
Reference mg_solve_to_tolerance(rt::multigrid::MgSolver& s, double rel_tol,
                                std::vector<double>* setup_ms = nullptr);

}  // namespace e2e
