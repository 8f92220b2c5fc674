#pragma once
// The one executor behind every sweep, host and simulated (bench runner,
// MgSolver, SorSolver, rt::serve, the benches): a block driver that turns
// a plan's loop schedule into the work items of one sweep, and one call
// per operator that runs each item with the nest the rule below picks.
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
// leaf runs the same nest as a flat tile.
//
// An untiled sweep on a pool tiles one dimension only: its items are J
// slabs sized so that one slab's plane window stays in a core's private
// L2 (slab_count), so each core keeps its K reuse in its own cache instead
// of finding a plane's neighbours in another core's.
//
// The nest rule.  Each operator call (jacobi, redblack, redblack_rhs,
// resid, psinv, rprj3, interp_add) takes any accessor type (native
// Array3D<double>, rt::cachesim::TracedArray3D, a classifying accessor)
// and picks the nest once per work item:
//   * native arrays above SimdLevel::kScalar run the row sweep
//     (rt/simd/row_kernels.hpp);
//   * native arrays at kScalar, and every other accessor, run the
//     stencil's one accessor nest over the box (rt/kernels/*.hpp).
// Native items run on ex.pool.  Any other accessor runs inline, in index
// order, whatever ex.pool is, so a traced address stream — and every
// simulated count — is deterministic.  Red-black on the accessor nest with
// a flat tiled plan runs the paper's fused Fig. 12 walk instead of two
// colour passes (redblack_walk, the one place that rule lives).
//
// Time steps go through one call too, run_steps, on any accessor: the
// runner's timed and simulated steps, the solve server's kernel paths and
// the temporal benches all run their time loop there.  Temporal blocking
// (rt/core/temporal.hpp) is schedule data for a second driver,
// for_each_step_block: the skew and diamond wavefronts hand it (step, box)
// work items, one pool call per stage, and the barrier after each call
// orders the stages.
//
// Store policy.  The paper's caches are write-around: a store allocates no
// line.  This host's caches are write-allocate, so a store to an uncached
// line first reads it from memory.  The write-only operators — jacobi's
// destination and init_grid — therefore pick a Stores policy per call,
// with no knob (choose_stores):
//   * they stream only when the destination array's bytes exceed the
//     last-level capacity the probed CacheTopology reports
//     (outer_data_bytes()), at SimdLevel::kAvx2 or kAvx512 (the levels
//     with streaming stamps); an unprobed topology,
//     any other level, accessor nests and temporal plans
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

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/core/cache_topology.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/stencil_terms.hpp"
#include "rt/core/temporal.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/kernels/psinv.hpp"
#include "rt/kernels/redblack.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/kernels/transfer.hpp"
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

namespace detail {

/// Whether every accessor type in As is a native Array3D<double>.
template <class... As>
inline constexpr bool kNative =
    (std::is_same_v<std::remove_const_t<As>, Array3D<double>> && ...);

/// The nest rule: a work item over accessors As runs the row sweep when
/// every one is a native array and ex.lvl is above kScalar, and the
/// accessor nest otherwise.
template <class... As>
bool rows(const Exec& ex) {
  return kNative<As...> && ex.lvl > SimdLevel::kScalar;
}

/// Where an operator over As runs its work items: on ex for native arrays;
/// inline, in index order, for any other accessor (a traced address
/// stream must not depend on the pool, and TracedArray3D is not
/// thread-safe).
template <class... As>
Exec items_exec(const Exec& ex) {
  return kNative<As...> ? ex : Exec{nullptr, ex.lvl, ex.caches};
}

/// One work item by the nest rule: row(box...) when rows<As...>(ex),
/// nest(box...) otherwise.  row is instantiated for native arrays only.
template <class... As, class Row, class Nest>
void on_box(const Exec& ex, const Row& row, const Nest& nest, long i0,
            long i1, long j0, long j1, long k0, long k1) {
  if constexpr (kNative<As...>) {
    if (rows<As...>(ex)) {
      row(i0, i1, j0, j1, k0, k1);
      return;
    }
  }
  nest(i0, i1, j0, j1, k0, k1);
}

/// One sweep of @p plan's work items over an n1 x n2 x n3 grid on
/// items_exec<As...>(ex), each run by on_box.
template <class... As, class Row, class Nest>
void sweep(const Exec& ex, const TilingPlan& plan, long n1, long n2, long n3,
           const Row& row, const Nest& nest) {
  for_each_block(items_exec<As...>(ex), plan, n1, n2, n3,
                 [&](long i0, long i1, long j0, long j1, long k0, long k1) {
                   on_box<As...>(ex, row, nest, i0, i1, j0, j1, k0, k1);
                 });
}

/// Red-black's two colours.  On the accessor nest with a flat tiled plan
/// (tiled, not recursive, both tile extents positive), fused(): the
/// paper's fused Fig. 12 walk, serial, which updates each colour in an
/// order of its own.  Otherwise one sweep per colour, red then black, by
/// row(parity, box...) / nest(parity, box...); recursive plans run both
/// colours over the co_over leaves.
template <class... As, class Row, class Nest, class Fused>
void redblack_walk(const Exec& ex, const TilingPlan& plan, long n1, long n2,
                   long n3, const Row& row, const Nest& nest,
                   const Fused& fused) {
  if (!rows<As...>(ex) && plan.tiled &&
      plan.schedule != rt::core::LoopSchedule::kRecursive &&
      plan.tile.ti > 0 && plan.tile.tj > 0) {
    fused();
    return;
  }
  for (long parity = 0; parity < 2; ++parity) {
    sweep<As...>(
        ex, plan, n1, n2, n3, [&](auto... box) { row(parity, box...); },
        [&](auto... box) { nest(parity, box...); });
  }
}

/// JACOBI's work item: a = c * (neighbours of b) over the box by the nest
/// rule, the row sweep storing with @p st.  With @p part (native arrays
/// only), also adds the checksum partial of the values it writes to
/// *part: the row sweep mixes them before storing, the accessor nest
/// hashes its box after writing it.
template <class A, class B>
void jacobi_box(const Exec& ex, Stores st, A& a, const B& b, double c,
                std::uint64_t* part, long i0, long i1, long j0, long j1,
                long k0, long k1) {
  on_box<A, B>(
      ex,
      [&](auto... box) { jacobi_sweep(a, b, c, box..., ex.lvl, st, part); },
      [&](auto... box) {
        rt::kernels::jacobi3d(a, b, c, box...);
        if constexpr (kNative<A>) {
          if (part != nullptr) *part += checksum_sweep(a, box..., ex.lvl);
        }
      },
      i0, i1, j0, j1, k0, k1);
}

/// The checksum partial of @p a's interior (points 1 .. n-2 on every
/// axis), one item per K plane.
std::uint64_t interior_checksum(const Exec& ex, const Array3D<double>& a);

/// JACOBI's last step with the checksum fold: a = kJacobiC * (neighbours
/// of b) on @p plan's work items, each adding the partial of what it
/// writes to its own slot (jacobi_box); returns the slots' sum, taken
/// after the barrier, so a is never read again.
std::uint64_t jacobi_fold(const Exec& ex, const TilingPlan& plan,
                          Array3D<double>& a, const Array3D<double>& b);

/// One rt::guard kHang fault point.
void fault_point();

/// The transfer shape check of rprj3 / interp_add (see there) for a swept
/// grid of extents @p swept reading a grid of extents @p read.
void check_transfer(const char* op, const std::array<long, 3>& swept,
                    const std::array<long, 3>& read, bool reads_fine);

}  // namespace detail

/// a = c * (six face neighbours of b); == rt::kernels::jacobi3d.  Native
/// arrays store with stores_for(ex, a).
template <class A, class B>
void jacobi(const Exec& ex, const TilingPlan& plan, A& a, const B& b,
            double c) {
  Stores st = Stores::kNormal;
  if constexpr (detail::kNative<A>) st = stores_for(ex, a);
  for_each_block(detail::items_exec<A, B>(ex), plan, a.n1(), a.n2(), a.n3(),
                 [&](long i0, long i1, long j0, long j1, long k0, long k1) {
                   detail::jacobi_box(ex, st, a, b, c, nullptr, i0, i1, j0,
                                      j1, k0, k1);
                 });
}

/// Red-black SOR, red then black; == rt::kernels::redblack_naive.
template <class A>
void redblack(const Exec& ex, const TilingPlan& plan, A& a, double c1,
              double c2) {
  detail::redblack_walk<A>(
      ex, plan, a.n1(), a.n2(), a.n3(),
      [&](long parity, auto... box) {
        redblack_sweep(a, c1, c2, parity, box..., ex.lvl);
      },
      [&](long parity, auto... box) {
        rt::kernels::redblack_colour(a, c1, c2, parity, box...);
      },
      [&] { rt::kernels::redblack_tiled(a, c1, c2, plan.tile); });
}

/// Red-black SOR with a constant term; == rt::kernels::redblack_naive_rhs.
template <class A, class R>
void redblack_rhs(const Exec& ex, const TilingPlan& plan, A& a, const R& r,
                  double c1, double c2) {
  detail::redblack_walk<A, R>(
      ex, plan, a.n1(), a.n2(), a.n3(),
      [&](long parity, auto... box) {
        redblack_rhs_sweep(a, r, c1, c2, parity, box..., ex.lvl);
      },
      [&](long parity, auto... box) {
        rt::kernels::redblack_colour_rhs(a, r, c1, c2, parity, box...);
      },
      [&] { rt::kernels::redblack_tiled_rhs(a, r, c1, c2, plan.tile); });
}

/// r = v - A u (27-point); == rt::kernels::resid.
template <class R, class V, class U>
void resid(const Exec& ex, const TilingPlan& plan, R& r, const V& v,
           const U& u, const rt::kernels::ResidCoeffs& a) {
  detail::sweep<R, V, U>(
      ex, plan, r.n1(), r.n2(), r.n3(),
      [&](auto... box) { resid_sweep(r, v, u, a, box..., ex.lvl); },
      [&](auto... box) { rt::kernels::resid(r, v, u, a, box...); });
}

/// u += S r (27-point smoother); == rt::kernels::psinv.
template <class U, class R>
void psinv(const Exec& ex, const TilingPlan& plan, U& u, const R& r,
           const PsinvCoeffs& c) {
  detail::sweep<U, R>(
      ex, plan, u.n1(), u.n2(), u.n3(),
      [&](auto... box) { psinv_sweep(u, r, c, box..., ex.lvl); },
      [&](auto... box) { rt::kernels::psinv(u, r, c, box...); });
}

/// Restriction of fine r onto coarse s, on the untiled schedule over the
/// coarse grid; == rt::kernels::rprj3.  Throws std::invalid_argument,
/// before writing, if fine r is too small for coarse s: a coarse extent m
/// (>= 3) needs a fine extent of at least 2m - 3 on that axis.
template <class S, class R>
void rprj3(const Exec& ex, S& s, const R& r) {
  detail::check_transfer("rprj3", {s.n1(), s.n2(), s.n3()},
                         {r.n1(), r.n2(), r.n3()}, /*reads_fine=*/true);
  detail::sweep<S, R>(
      ex, TilingPlan{}, s.n1(), s.n2(), s.n3(),
      [&](auto... box) { rprj3_sweep(s, r, box..., ex.lvl); },
      [&](auto... box) { rt::kernels::rprj3(s, r, box...); });
}

/// Prolongation u += P z, on the untiled schedule over the fine grid;
/// == rt::kernels::interp_add.  Throws std::invalid_argument, before
/// writing, if coarse z is too small for fine u: a fine extent n (>= 3)
/// needs a coarse extent above n / 2 on that axis.  MgSolver's pair,
/// fine 2m - 2 over coarse m, passes both checks.
template <class U, class Z>
void interp_add(const Exec& ex, U& u, const Z& z) {
  detail::check_transfer("interp_add", {u.n1(), u.n2(), u.n3()},
                         {z.n1(), z.n2(), z.n3()}, /*reads_fine=*/false);
  detail::sweep<U, Z>(
      ex, TilingPlan{}, u.n1(), u.n2(), u.n3(),
      [&](auto... box) { interp_sweep(u, z, box..., ex.lvl); },
      [&](auto... box) { rt::kernels::interp_add(u, z, box...); });
}

namespace detail {

/// One time step of @p id on @p x, with the coefficients run_steps
/// documents; JACOBI writes x[dst] from x[1 - dst].  The one kernel
/// switch.
template <class A>
void step(const Exec& ex, rt::kernels::KernelId id, const TilingPlan& plan,
          std::vector<A>& x, std::size_t dst) {
  namespace terms = rt::core::terms;
  using rt::kernels::KernelId;
  switch (id) {
    case KernelId::kJacobi:
      jacobi(ex, plan, x[dst], x[1 - dst], terms::kJacobiC);
      return;
    case KernelId::kRedBlack:
      redblack(ex, plan, x[0], terms::kRedBlackC1, terms::kRedBlackC2);
      return;
    case KernelId::kResid:
      resid(ex, plan, x[0], x[1], x[2], rt::kernels::nas_mg_a());
      return;
    case KernelId::kPsinv:
      psinv(ex, plan, x[0], x[1], rt::kernels::nas_mg_c());
      return;
  }
}

}  // namespace detail

/// @p tsteps time steps of kernel @p id on its kernel_info(id).num_arrays
/// @p arrays of any accessor type, with the coefficients the benches and
/// the solve server use (JACOBI rt::core::terms::kJacobiC = 1/6, REDBLACK
/// kRedBlackC1 / kRedBlackC2 = 0.4 / 0.1, RESID nas_mg_a, PSINV
/// nas_mg_c):
///   * JACOBI ping-pongs: the start state is arrays[tsteps % 2], step s
///     writes arrays[(tsteps - 1 - s) % 2]'s interior from the other
///     array, so the result lands in arrays[0];
///   * REDBLACK, RESID and PSINV make one operator call per step (RESID:
///     arrays[0] = arrays[1] - A arrays[2]; PSINV: arrays[0] += S arrays[1]).
/// Each step runs @p plan's schedule by the nest rule: the row kernels at
/// ex.lvl, or the accessor nests (rt/kernels/*.hpp) at kScalar and for
/// non-native accessors (those inline, in index order).  With
/// tp.mode != kOff, JACOBI instead runs tp's wavefront through
/// for_each_step_block (plan is not used) with normal stores, and any
/// other kernel throws std::invalid_argument.
/// tsteps <= 0 runs nothing; the caller initialises the arrays.  Every
/// step is one rt::guard kHang fault point (checked on the calling thread
/// before the step; a temporal run checks all of them before it starts).
/// Bit-identical for every pool width, level, plan and schedule.
/// With @p checksum (native arrays only; any other accessor throws
/// std::invalid_argument), run_steps also adds to *checksum the checksum
/// partial of arrays[0]'s interior (points 1 .. n-2 on every axis) after
/// the steps; the caller adds the shell's (init_shell).  Spatial JACOBI
/// with tsteps >= 1 folds it into the last step: each work item keeps its
/// own partial of the values it writes (mixed in the row bodies before
/// they are stored; hashed after each box at kScalar), and the partials
/// add up after the step's barrier, so arrays[0] is never read again.
/// Every other run (tsteps <= 0, other kernels, temporal plans) reads the
/// interior once more after its steps.  The grid bits are the same with
/// or without it.
template <class A>
void run_steps(const Exec& ex, rt::kernels::KernelId id,
               const TilingPlan& plan, std::vector<A>& arrays, int tsteps,
               const rt::core::TemporalPlan& tp = {},
               std::uint64_t* checksum = nullptr) {
  using rt::kernels::KernelId;
  if constexpr (!detail::kNative<A>) {
    if (checksum != nullptr) {
      throw std::invalid_argument("run_steps: a checksum needs native arrays");
    }
  }
  bool folded = false;
  if (tp.mode != rt::core::TemporalMode::kOff) {
    if (id != KernelId::kJacobi) {
      throw std::invalid_argument(
          "run_steps: temporal schedules run JACOBI only");
    }
    for (int s = 0; s < tsteps; ++s) detail::fault_point();
    rt::core::TemporalPlan sched = tp;
    sched.tsteps = tsteps;
    const auto dst = [&](int t) {
      return static_cast<std::size_t>((tsteps - 1 - t) % 2);
    };
    // A wavefront re-reads what it writes: normal stores.
    for_each_step_block(
        detail::items_exec<A>(ex), sched, arrays[0].n1(), arrays[0].n2(),
        arrays[0].n3(),
        [&](int t, long i0, long i1, long j0, long j1, long k0, long k1) {
          detail::jacobi_box(ex, Stores::kNormal, arrays[dst(t)],
                             arrays[1 - dst(t)], rt::core::terms::kJacobiC,
                             nullptr, i0, i1, j0, j1, k0, k1);
        });
  } else {
    for (int s = 0; s < tsteps; ++s) {
      detail::fault_point();
      if constexpr (detail::kNative<A>) {
        if (checksum != nullptr && id == KernelId::kJacobi &&
            s == tsteps - 1) {
          *checksum += detail::jacobi_fold(ex, plan, arrays[0], arrays[1]);
          folded = true;
          continue;
        }
      }
      detail::step(ex, id, plan, arrays,
                   static_cast<std::size_t>((tsteps - 1 - s) % 2));
    }
  }
  if constexpr (detail::kNative<A>) {
    if (checksum != nullptr && !folded) {
      *checksum += detail::interior_checksum(ex, arrays[0]);
    }
  }
}

}  // namespace rt::simd
