#pragma once
// The one executor behind every host fast path (bench runner, MgSolver,
// SorSolver, rt::serve, the host benches): a block driver that turns a
// plan's loop schedule into the work items of one sweep, and one call per
// operator that runs the operator's row sweep (rt/simd/row_kernels.hpp) on
// each item.
//
// Work items follow the paper's decomposition — JI tiles with K untiled —
// so every item writes a disjoint (i, j) column range (or, untiled, a
// disjoint K plane) and reads only data no concurrent item writes.  Items
// may therefore run in any order on any thread: for every pool width and
// every SimdLevel the result is bit-identical to the serial accessor
// kernels (tests/exec_test.cpp).  Red-black runs one driver call per
// colour, and the driver's end-of-sweep barrier is the colour barrier.
//
// The recursive schedule is a driver too (cf. PCOT and the inncabs
// recursive Jacobi): its work items are the leaves of rt::kernels::co_over,
// and each leaf runs the same row sweep as a flat tile.
//
// Thread-safety: the row sweeps address raw Array3D memory; traced
// (simulated) runs keep the serial accessor kernels, which also keeps
// simulated miss counts deterministic.

#include <functional>

#include "rt/array/array3d.hpp"
#include "rt/core/plan.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/simd/row_kernels.hpp"
#include "rt/simd/simd.hpp"

namespace rt::simd {

using rt::core::TilingPlan;

/// Where a sweep runs: on @p pool (nullptr = inline on the calling thread,
/// in index order) with the row kernels compiled for @p lvl.
struct Exec {
  rt::par::ThreadPool* pool = nullptr;
  SimdLevel lvl = SimdLevel::kRows;
};

/// body(ilo, ihi, jlo, jhi, klo, khi): one work item, a half-open box of
/// the interior.
using BlockFn = std::function<void(long, long, long, long, long, long)>;

/// Run @p body over the work items of one sweep of the interior of an
/// n1 x n2 x n3 grid:
///   * LoopSchedule::kRecursive plans: the leaves of rt::kernels::co_over
///     down to plan.tile, each with full K;
///   * other tiled plans: the JI tile grid, jj-outer / ii-inner, full K
///     (a tile with a non-positive extent runs as untiled);
///   * untiled plans: one K plane per item.
/// Returns once every item has run (a barrier).  An empty interior runs
/// nothing.
void for_each_block(const Exec& ex, const TilingPlan& plan, long n1, long n2,
                    long n3, const BlockFn& body);

// --- One call per operator, each bit-identical to its accessor kernel ---

/// a = c * (six face neighbours of b); == rt::kernels::jacobi3d.
void jacobi(const Exec& ex, const TilingPlan& plan, Array3D<double>& a,
            const Array3D<double>& b, double c);

/// dst = src over the interior, one K plane per item.
void copy_interior(const Exec& ex, Array3D<double>& dst,
                   const Array3D<double>& src);

/// Red-black SOR, red then black; == rt::kernels::redblack_naive.
void redblack(const Exec& ex, const TilingPlan& plan, Array3D<double>& a,
              double c1, double c2);

/// Red-black SOR with a constant term; == rt::kernels::redblack_naive_rhs.
void redblack_rhs(const Exec& ex, const TilingPlan& plan, Array3D<double>& a,
                  const Array3D<double>& r, double c1, double c2);

/// r = v - A u (27-point); == rt::kernels::resid.
void resid(const Exec& ex, const TilingPlan& plan, Array3D<double>& r,
           const Array3D<double>& v, const Array3D<double>& u,
           const rt::kernels::ResidCoeffs& a);

/// u += S r (27-point smoother); == rt::multigrid::psinv.
void psinv(const Exec& ex, const TilingPlan& plan, Array3D<double>& u,
           const Array3D<double>& r, const PsinvCoeffs& c);

/// Restriction of fine r onto coarse s, one coarse K plane per item;
/// == rt::multigrid::rprj3.
void rprj3(const Exec& ex, Array3D<double>& s, const Array3D<double>& r);

/// Prolongation u += P z, one fine K plane per item;
/// == rt::multigrid::interp_add.
void interp_add(const Exec& ex, Array3D<double>& u, const Array3D<double>& z);

}  // namespace rt::simd
