#pragma once
// The one executor behind every sweep, host and simulated (bench runner,
// MgSolver, SorSolver, rt::serve, the host benches): a block driver that
// turns a plan's loop schedule into the work items of one sweep, and one
// call per operator that runs the operator's row sweep
// (rt/simd/row_kernels.hpp) on each item.
//
// Work items follow the paper's decomposition — JI tiles with K untiled —
// so every item writes a disjoint (i, j) column range (untiled: a disjoint
// full-I, full-K J slab) and reads only data no concurrent item writes.
// Items may therefore run in any order on any thread: for every pool width
// and every SimdLevel the result is bit-identical to the serial accessor
// kernels (tests/exec_test.cpp).  Red-black runs one driver call per
// colour, and the driver's end-of-sweep barrier is the colour barrier.
//
// The recursive schedule is a driver too (cf. PCOT and the inncabs
// recursive Jacobi): its work items are the leaves of co_over, and each
// leaf runs the same row sweep as a flat tile.
//
// An untiled sweep on a pool tiles one dimension only: its items are J
// slabs sized so that one slab's plane window stays in a core's private
// L2 (slab_count), so each core keeps its K reuse in its own cache instead
// of finding a plane's neighbours in another core's.
//
// Traced (simulated) and --simd=off runs use the same driver with a null
// pool and an accessor nest as the body (rt/kernels/*.hpp: each stencil's
// one nest over a box).  A null pool runs the items inline, in index
// order, so the traced address stream — and every simulated count — is
// deterministic.
//
// Time steps go through one call too, run_steps: the runner's timed step,
// the solve server's kernel paths and the temporal benches all run their
// time loop there.  Temporal blocking (rt/core/temporal.hpp) is schedule
// data for a second driver, for_each_step_block: the skew and diamond
// wavefronts hand it (step, box) work items, one pool call per stage, and
// the barrier after each call orders the stages.
//
// Store policy.  The paper's caches are write-around: a store allocates no
// line.  This host's caches are write-allocate, so a store to an uncached
// line first reads it from memory.  The write-only operators — jacobi's
// destination, copy_interior and init_grid — therefore pick a Stores
// policy per call, with no knob (choose_stores):
//   * they stream only when the destination array's bytes exceed the
//     last-level capacity the probed CacheTopology reports
//     (outer_data_bytes()), at SimdLevel::kAvx2 or kAvx512 (the levels
//     with streaming stamps); an unprobed topology,
//     any other level, traced runs (accessor nests) and temporal plans
//     (a wavefront re-reads its destination) always store normally;
//   * a streaming row writes each whole 64 B line with non-temporal
//     stores and its head and tail lines with normal stores, never both
//     kinds in one line (row_kernels.hpp);
//   * every streaming work item ends with _mm_sfence() before it returns
//     to the pool, and the pool's end-of-sweep barrier then publishes the
//     stores to the next sweep, on whichever thread reads them.
// The stored bits are the same either way.
//
// Reductions go through one primitive, reduce_planes: one partial per K
// plane (on the pool or inline), combined serially in plane order, so a
// reduced value never depends on the pool width.  sum_squares (the
// multigrid L2 residual norm) is built on it.  The grid checksum is a sum
// mod 2^64 of per-point terms, so its partials add in any order: over
// planes in the standalone pass, and over the work items of JACOBI's last
// step when run_steps folds it into that step (the checksum fold).

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/core/cache_topology.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/temporal.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/simd/row_kernels.hpp"
#include "rt/simd/simd.hpp"

namespace rt::simd {

using rt::core::TilingPlan;

/// Where a sweep runs: on @p pool (nullptr = inline on the calling thread,
/// in index order) with the row kernels compiled for @p lvl.  @p caches is
/// the topology the store policy reads (nullptr = this host's,
/// rt::core::host_cache_topology()).
struct Exec {
  rt::par::ThreadPool* pool = nullptr;
  SimdLevel lvl = SimdLevel::kRows;
  const rt::core::CacheTopology* caches = nullptr;
};

/// The store-policy rule: Stores::kStream when @p lvl is kAvx2 or kAvx512,
/// the plan is not @p temporal, @p topo is probed and @p dest_bytes
/// exceeds topo.outer_data_bytes(); otherwise kNormal.
Stores choose_stores(SimdLevel lvl, long dest_bytes,
                     const rt::core::CacheTopology& topo, bool temporal);

/// choose_stores for a spatial sweep of ex that writes @p dst (all of its
/// allocation's bytes, padding included) — what jacobi, copy_interior and
/// init_grid run with.
Stores stores_for(const Exec& ex, const Array3D<double>& dst);

/// body(ilo, ihi, jlo, jhi, klo, khi): one work item, a half-open box of
/// the interior.
using BlockFn = std::function<void(long, long, long, long, long, long)>;

/// Recursive (cache-oblivious) decomposition of the half-open region
/// [ilo, ihi) x [jlo, jhi): bisect whichever dimension overshoots its base
/// extent by the larger factor, stop when both fit, and hand the block to
/// @p body as body(ilo, ihi, jlo, jhi).  No cache parameter is consulted:
/// every level of the recursion fits *some* cache level.  Depth is
/// O(log(N / base)).
template <class Body>
void co_over(long ilo, long ihi, long jlo, long jhi, long base_ti,
             long base_tj, Body&& body) {
  const long ni = ihi - ilo;
  const long nj = jhi - jlo;
  if (ni <= 0 || nj <= 0) return;
  if (base_ti < 1) base_ti = 1;
  if (base_tj < 1) base_tj = 1;
  if (ni <= base_ti && nj <= base_tj) {
    body(ilo, ihi, jlo, jhi);
    return;
  }
  // ni/base_ti >= nj/base_tj, cross-multiplied to stay in integers.
  if (ni * base_tj >= nj * base_ti) {
    const long mid = ilo + ni / 2;
    co_over(ilo, mid, jlo, jhi, base_ti, base_tj, body);
    co_over(mid, ihi, jlo, jhi, base_ti, base_tj, std::forward<Body>(body));
  } else {
    const long mid = jlo + nj / 2;
    co_over(ilo, ihi, jlo, mid, base_ti, base_tj, body);
    co_over(ilo, ihi, mid, jhi, base_ti, base_tj, std::forward<Body>(body));
  }
}

/// Run @p body over the work items of one sweep of the interior of an
/// n1 x n2 x n3 grid:
///   * LoopSchedule::kRecursive plans: the leaves of co_over down to
///     plan.tile, each with full K;
///   * other tiled plans: the JI tile grid, jj-outer / ii-inner, full K
///     (a tile with a non-positive extent runs as untiled);
///   * untiled plans: with a null pool, one item, the whole interior (the
///     accessor nests loop k, j, i, so the traced stream is plane order);
///     on a pool, slab_count(n1, n2 - 2, width, host L2) full-I, full-K J
///     slabs, slab m covering rows [1 + nj*m/c, 1 + nj*(m+1)/c).
/// Returns once every item has run (a barrier).  An empty interior runs
/// nothing.
void for_each_block(const Exec& ex, const TilingPlan& plan, long n1, long n2,
                    long n3, const BlockFn& body);

/// How many J slabs an untiled sweep of an n1-wide interior with @p nj J
/// rows runs on a pool of @p width threads: the smallest multiple of width
/// whose tallest slab, ceil(nj / count) rows, keeps its window — (rows + 2)
/// rows of n1 doubles in five planes: the stencil input's three, one of a
/// second input, one of the output — within half of @p l2_bytes (<= 0:
/// unknown, 1 MiB).  Capped at nj (one row per slab), also when a single
/// row overflows the budget.  nj <= 0 gives 0.
long slab_count(long n1, long nj, int width, long l2_bytes);

/// body(t, ilo, ihi, jlo, jhi, klo, khi): time step t (0-based) of one
/// half-open box of the interior.
using StepBlockFn =
    std::function<void(int, long, long, long, long, long, long)>;

/// Run @p body over every (step, box) of @p tp's schedule for tp.tsteps
/// steps of a six-point stencil on an n1 x n2 x n3 grid.  Each stage is one
/// detail::run_items call (inline in schedule order with a null pool), and
/// its barrier orders the stages:
///   * kSkew — slope-1 skewed K blocks of depth tp.bk (clamped to >= 1):
///     block kb runs steps t = 0 .. tsteps-1 over planes
///     [max(1, kb - t), min(n3 - 2, kb + tp.bk - 1 - t)], blocks in
///     ascending K; one item per plane.
///   * kDiamond — the two-phase diamond of width W = tp.bk (>= 2) in
///     passes of tb = tp.tb steps (clamped to [1, W/2], which keeps the
///     triangles of one step plane-disjoint).  Phase 1: block d (first
///     plane s = 1 + d*W) runs step t over [s + t, s + W - 1 - t]; phase 2:
///     boundary b = 1 + d*W (d = 0 .. nblocks) runs step t >= 1 over
///     [max(1, b - t), b + t - 1].  One item per (block, J slice) per
///     step, the J interior split into tp.team slices.
/// Every (step, plane, row) runs exactly once, after the step - 1 updates
/// of its neighbours, so a ping-pong body computes exactly
/// rt::kernels::jacobi3d_pingpong.  tp.tsteps <= 0 or an empty interior
/// runs nothing; kOff throws std::invalid_argument.
void for_each_step_block(const Exec& ex, const rt::core::TemporalPlan& tp,
                         long n1, long n2, long n3, const StepBlockFn& body);

namespace detail {
/// item(i) for every i in [0, count): on ex.pool, or inline in index order
/// when the pool is null.  A barrier, like for_each_block.
void run_items(const Exec& ex, long count,
               const std::function<void(long)>& item);
}  // namespace detail

/// Plane-ordered reduction over K planes 0 .. n3-1:
///   combine(... combine(combine(init, partial(0)), partial(1)) ...,
///           partial(n3 - 1))
/// partial(k) runs exactly once per plane, on ex.pool (planes in any order,
/// on any thread) or inline in plane order; combine runs serially on the
/// calling thread in plane order.  The value is therefore the same for
/// every pool width, whether or not combine is commutative or associative.
/// n3 <= 0 returns init.  Allocates one partial per plane.
template <class T, class Partial, class Combine>
T reduce_planes(const Exec& ex, long n3, T init, const Partial& partial,
                const Combine& combine) {
  if (n3 <= 0) return init;
  using P = std::invoke_result_t<const Partial&, long>;
  std::vector<P> parts(static_cast<std::size_t>(n3));
  detail::run_items(ex, n3, [&](long k) {
    parts[static_cast<std::size_t>(k)] = partial(k);
  });
  for (const P& p : parts) init = combine(init, p);
  return init;
}

/// Bit-exact witness of a grid's contents: over every point (i, j, k) of
/// the *logical* region (padding excluded, so differently padded grids
/// with equal contents hash equal), the sum mod 2^64 of
///   mix(w, key) = (rotl(w, 1) ^ key) * key,
/// w the value's 64-bit pattern and key = row_key(j, k) + i * S, where
/// row_key(j, k) is splitmix64(j + 2^32 k) with bit 0 set and S is the
/// even constant 0x3c6ef372fe94f82a (so every key is odd, and a row steps
/// its key by one add).
///   * For a fixed key, mix is a bijection of w, so changing any single
///     element always changes the sum.
///   * The rotate sends the sign bit to bit 0, where a flip moves the term
///     by +-key: two sign flips cancel only if their keys are equal or
///     opposite mod 2^64.  (The bit rotated into bit 63, w's bit 62, moves
///     its term by 2^63 whatever the key, so two flips of it do cancel.)
///   * The key is the logical position, so shape and plane order matter.
/// The partials of any boxes that cover the region once add up to the
/// checksum (checksum_sweep), so the value is the same for every pool
/// width, level and split.  The standalone pass runs one partial per K
/// plane at ex.lvl.
std::uint64_t checksum(const Exec& ex, const Array3D<double>& a);

/// Sum of squares over the interior (1 .. n-2 in each dimension; ghosts
/// and padding excluded), through reduce_planes with one item per interior
/// K plane:
///   * a plane's partial keeps 8 lanes; element i of a row adds v*v to
///     lane (i - 1) mod 8, rows in j order, so each lane sums in (j, i)
///     order and a row's tail lands in its own lanes;
///   * the lanes fold as ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7));
///   * planes combine with + in plane order, starting from 0.0.
/// One portable body, compiled without FP contraction: the value is the
/// same for every pool width and every SimdLevel.
double sum_squares(const Exec& ex, const Array3D<double>& a);

/// @p tsteps time steps of kernel @p id on its kernel_info(id).num_arrays
/// @p arrays, with the coefficients the benches and the solve server use
/// (JACOBI rt::core::terms::kJacobiC = 1/6, REDBLACK kRedBlackC1 /
/// kRedBlackC2 = 0.4 / 0.1, RESID nas_mg_a, PSINV nas_mg_c):
///   * JACOBI ping-pongs: the start state is arrays[tsteps % 2], step s
///     writes arrays[(tsteps - 1 - s) % 2]'s interior from the other
///     array, so the result lands in arrays[0];
///   * REDBLACK, RESID and PSINV make one operator call per step (RESID:
///     arrays[0] = arrays[1] - A arrays[2]; PSINV: arrays[0] += S arrays[1]).
/// Each step runs @p plan's schedule: the row kernels at ex.lvl, or the
/// accessor nests (rt/kernels/*.hpp) at kScalar.  With tp.mode != kOff,
/// JACOBI instead runs tp's wavefront through for_each_step_block (plan
/// is not used) with normal stores, and any other kernel throws
/// std::invalid_argument.
/// tsteps <= 0 runs nothing; the caller initialises the arrays.  Every
/// step is one rt::guard kHang fault point (checked on the calling thread
/// before the step; a temporal run checks all of them before it starts).
/// Bit-identical for every pool width, level, plan and schedule.
/// With @p checksum, run_steps also adds to *checksum the checksum partial
/// of arrays[0]'s interior (points 1 .. n-2 on every axis) after the steps;
/// the caller adds the shell's (init_shell).  Spatial JACOBI with
/// tsteps >= 1 folds it into the last step: each work item keeps its own
/// partial of the values it writes (mixed in the row bodies before they
/// are stored; hashed after each box at kScalar), and the partials add up
/// after the step's barrier, so arrays[0] is never read again.  Every
/// other run (tsteps <= 0, other kernels, temporal plans) reads the
/// interior once more after its steps.  The grid bits are the same with
/// or without it.
void run_steps(const Exec& ex, rt::kernels::KernelId id, const TilingPlan& plan,
               std::vector<Array3D<double>>& arrays, int tsteps,
               const rt::core::TemporalPlan& tp = {},
               std::uint64_t* checksum = nullptr);

// --- One call per operator, each bit-identical to its accessor kernel ---

/// a = rt::kernels::grid_value(scale, i, j, k) over the logical region
/// (padding untouched), one K plane per work item, with
/// stores_for(ex, a); == rt::kernels::init_grid.
void init_grid(const Exec& ex, Array3D<double>& a, double scale);

/// a = rt::kernels::grid_value(scale, i, j, k) over the boundary shell
/// only (== rt::kernels::init_grid_shell), one K plane per work item,
/// with normal stores.  Returns the shell's checksum partial, each value
/// mixed as it is written; with run_steps' interior partial it makes
/// checksum(ex, a).
std::uint64_t init_shell(const Exec& ex, Array3D<double>& a, double scale);

/// a = c * (six face neighbours of b), with stores_for(ex, a);
/// == rt::kernels::jacobi3d.
void jacobi(const Exec& ex, const TilingPlan& plan, Array3D<double>& a,
            const Array3D<double>& b, double c);

/// dst = src over the interior, on the untiled schedule, with
/// stores_for(ex, dst).
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

/// u += S r (27-point smoother); == rt::kernels::psinv.
void psinv(const Exec& ex, const TilingPlan& plan, Array3D<double>& u,
           const Array3D<double>& r, const PsinvCoeffs& c);

/// Restriction of fine r onto coarse s, on the untiled schedule over the
/// coarse grid; == rt::multigrid::rprj3.  Throws std::invalid_argument,
/// before writing, if fine r is too small for coarse s: a coarse extent m
/// (>= 3) needs a fine extent of at least 2m - 3 on that axis.
void rprj3(const Exec& ex, Array3D<double>& s, const Array3D<double>& r);

/// Prolongation u += P z, on the untiled schedule over the fine grid;
/// == rt::multigrid::interp_add.  Throws std::invalid_argument, before
/// writing, if coarse z is too small for fine u: a fine extent n (>= 3)
/// needs a coarse extent above n / 2 on that axis.  MgSolver's pair,
/// fine 2m - 2 over coarse m, passes both checks.
void interp_add(const Exec& ex, Array3D<double>& u, const Array3D<double>& z);

}  // namespace rt::simd
