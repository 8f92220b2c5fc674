// Differential test of the executor (rt/simd/exec.hpp), the one dispatch
// every sweep runs through.  Every operator, under every loop schedule
// (untiled J slabs, the flat JI tile grid, the recursive co_over leaves),
// inline and on 1- to 4-thread pools, at every SimdLevel (kScalar: the
// accessor nests), must be bitwise equal to the untiled serial accessor
// oracle — run on unpadded grids, while the executor runs on the shape's
// padded ones.  On TracedArray3D accessors every operator must give the
// bits and the per-level simulated counts of the accessor nests run by
// hand on the block driver, inline, whatever pool the Exec carries.
// Shapes cover n = 3, cubic, padded (odd and vector-aligned leading
// dimensions) and ragged non-cubic grids, with tiles that do not divide,
// or exceed, the interior, J extents the slabs do not divide, and a grid
// wide enough that each thread runs several L2-sized slabs; each operator
// runs several steps so any divergence compounds.  Red-black is checked
// against the serial fused tiled schedule as well as the naive one.
//
// run_steps, the one time-step call, is checked the same way for every
// kernel, tsteps (including <= 0) and plan schedule, and under skew and
// diamond TemporalPlans against the ping-pong reference; the time-schedule
// driver must run every (step, plane, row) exactly once and only after the
// step - 1 updates it reads.
//
// Streaming stores (Stores::kStream) are checked the same way: an executor
// given a topology whose last level is smaller than every test grid
// streams jacobi, init_grid and run_steps' JACOBI, on rows
// of 3 to 17 elements and padded rows that start off a line boundary,
// under every schedule and pool width; the store-policy rule itself is
// checked as a pure function.
//
// Also pinned: the block driver's work items (a null pool runs the serial
// tile order and one whole-interior box untiled; a pool runs untiled
// sweeps as full-K J slabs that cover J once; a recursive plan runs
// exactly the co_over leaves, not the flat grid), the slab-count rule,
// degenerate tiles and empty interiors, the red-black colour
// barrier under many threads, and reduce_planes: a plane-ordered value for
// every pool width, each partial run exactly once.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/cachesim/hierarchy.hpp"
#include "rt/cachesim/traced_array.hpp"
#include "rt/core/cache_topology.hpp"
#include "rt/core/temporal.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/psinv.hpp"
#include "rt/kernels/redblack.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/kernels/transfer.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/simd/exec.hpp"

namespace rt::simd {
namespace {

using rt::array::Array3D;
using rt::array::Dims3;
using rt::core::IterTile;
using rt::core::LoopSchedule;
using rt::par::ThreadPool;
using Grids = std::vector<Array3D<double>>;

Array3D<double> make_grid(long n1, long n2, long n3, double seed, long p1,
                          long p2) {
  Array3D<double> a(p1 > 0 ? Dims3::padded(n1, n2, n3, p1, p2)
                           : Dims3::unpadded(n1, n2, n3));
  for (long k = 0; k < n3; ++k) {
    for (long j = 0; j < n2; ++j) {
      for (long i = 0; i < n1; ++i) {
        a(i, j, k) = std::sin(seed + 0.1 * i + 0.2 * j + 0.3 * k);
      }
    }
  }
  return a;
}

/// Bitwise equality over the logical region (boundaries included), so
/// grids of different padding compare by value.
bool logical_equal(const Array3D<double>& a, const Array3D<double>& b) {
  for (long k = 0; k < a.n3(); ++k) {
    for (long j = 0; j < a.n2(); ++j) {
      for (long i = 0; i < a.n1(); ++i) {
        if (a(i, j, k) != b(i, j, k)) return false;
      }
    }
  }
  return true;
}

struct Shape {
  long n1, n2, n3, ti, tj, p1, p2;  // p1 = 0: unpadded
};

/// "9x7x11_t2x5_p0x0": extents, tile, pad (also the test-name suffix).
std::string describe(const Shape& s) {
  return std::to_string(s.n1) + "x" + std::to_string(s.n2) + "x" +
         std::to_string(s.n3) + "_t" + std::to_string(s.ti) + "x" +
         std::to_string(s.tj) + "_p" + std::to_string(s.p1) + "x" +
         std::to_string(s.p2);
}

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> kShapes = {
      // Minimum stencil-admitting grids: one interior point per row.
      {3, 3, 3, 1, 1, 0, 0},
      {3, 5, 4, 2, 2, 0, 0},
      // Cubic; the tile divides / does not divide the interior.
      {8, 8, 8, 3, 3, 0, 0},
      {16, 16, 16, 7, 5, 0, 0},
      // Ragged non-cubic; tiles of one row or column; tiles exceeding the
      // interior.
      {9, 7, 11, 2, 5, 0, 0},
      {23, 41, 11, 7, 3, 0, 0},
      {40, 12, 30, 13, 22, 0, 0},
      {41, 6, 9, 41, 1, 0, 0},
      {12, 30, 5, 100, 100, 0, 0},
      {21, 9, 6, 6, 4, 0, 0},
      {64, 10, 13, 22, 13, 0, 0},
      {17, 13, 7, 1, 1, 0, 0},
      // Padded: odd leading dimension (rows never share an alignment
      // phase), vector-aligned leading dimension, pad in both dimensions.
      {12, 18, 8, 5, 4, 17, 23},
      {12, 18, 8, 5, 4, 16, 18},
      {30, 10, 7, 9, 9, 40, 12},
      // Wide: a slab's plane window holds only a few rows of this I
      // extent, so every pool width runs several ragged slabs per thread.
      {3000, 23, 4, 700, 5, 0, 0},
  };
  return kShapes;
}

/// kScalar runs the accessor nests (on the pool too); kAvx2 and kAvx512
/// run on every host: without them the sweeps run the widest stamp the
/// CPU executes (the narrowing rule is rt::simd::detail::stamp_level,
/// tested for every feature set in simd_kernels_test).
const SimdLevel kLevels[] = {SimdLevel::kScalar, SimdLevel::kRows,
                             SimdLevel::kAvx2, SimdLevel::kAvx512};

/// Every executor configuration: inline (no pool) and 1 to 4 threads, at
/// every level.
struct Runner {
  ThreadPool one{1}, two{2}, three{3}, four{4};
  std::vector<Exec> execs() {
    std::vector<Exec> v;
    for (const SimdLevel lvl : kLevels) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &one, &two,
                            &three, &four}) {
        v.push_back(Exec{p, lvl});
      }
    }
    return v;
  }
};

std::string describe(const Exec& ex) {
  return std::string(" threads ") +
         std::to_string(ex.pool != nullptr ? ex.pool->num_threads() : 1) +
         " level " + simd_level_name(ex.lvl);
}

// --- Plan-driven operators ---

enum class Op {
  kJacobi,
  kRedBlack,
  kRedBlackRhs,
  kResid,
  kPsinvNas,
  kPsinvDense,
  kResidDense,
};
enum class Sched { kUntiled, kFlat, kRecursive };

int num_grids(Op op) {
  switch (op) {
    case Op::kRedBlack:
      return 1;
    case Op::kResid:
    case Op::kResidDense:
      return 3;
    default:
      return 2;
  }
}

rt::kernels::ResidCoeffs resid_coeffs(Op op) {
  // The NAS set zeroes the face term; the dense set exercises it.
  return op == Op::kResid
             ? rt::kernels::nas_mg_a()
             : rt::kernels::ResidCoeffs{-2.4, 0.07, 0.15, 0.06};
}

rt::kernels::SmootherCoeffs psinv_coeffs(Op op) {
  // The NAS set zeroes the corner term; the dense set exercises it.
  return op == Op::kPsinvNas
             ? rt::kernels::nas_mg_c()
             : rt::kernels::SmootherCoeffs{-0.4, 0.03, -0.015, 0.007};
}

TilingPlan plan_of(Sched s, IterTile t) {
  TilingPlan p;
  p.tiled = s != Sched::kUntiled;
  p.tile = t;
  p.schedule = s == Sched::kRecursive ? LoopSchedule::kRecursive
               : s == Sched::kFlat    ? LoopSchedule::kTiled
                                      : LoopSchedule::kFlat;
  return p;
}

constexpr int kSteps = 3;

/// The serial reference of @p op, kSteps times: the untiled accessor
/// oracle (every schedule computes the same bits), except that red-black
/// under a flat tiled schedule runs the paper's fused tiled nest — bitwise
/// equal to the naive sweep, so the executor's colour passes are checked
/// against both.
void run_reference(Op op, Sched s, IterTile t, Grids& x) {
  const bool fused = s == Sched::kFlat;
  for (int step = 0; step < kSteps; ++step) {
    switch (op) {
      case Op::kJacobi:
        rt::kernels::jacobi3d(x[0], x[1], 1.0 / 6.0);
        rt::kernels::copy_interior(x[1], x[0]);
        break;
      case Op::kRedBlack:
        if (fused) {
          rt::kernels::redblack_tiled(x[0], 0.4, 0.1, t);
        } else {
          rt::kernels::redblack_naive(x[0], 0.4, 0.1);
        }
        break;
      case Op::kRedBlackRhs:
        if (fused) {
          rt::kernels::redblack_tiled_rhs(x[0], x[1], 0.4, 0.1, t);
        } else {
          rt::kernels::redblack_naive_rhs(x[0], x[1], 0.4, 0.1);
        }
        break;
      case Op::kResid:
      case Op::kResidDense:
        rt::kernels::resid(x[0], x[1], x[2], resid_coeffs(op));
        break;
      case Op::kPsinvNas:
      case Op::kPsinvDense:
        rt::kernels::psinv(x[0], x[1], psinv_coeffs(op));
        break;
    }
  }
}

/// The executor's run of @p op, kSteps times, on any accessor; JACOBI
/// copies back with the accessor nest.
template <class A>
void run_executor(Op op, const Exec& ex, const TilingPlan& plan,
                  std::vector<A>& x) {
  for (int step = 0; step < kSteps; ++step) {
    switch (op) {
      case Op::kJacobi:
        jacobi(ex, plan, x[0], x[1], 1.0 / 6.0);
        rt::kernels::copy_interior(x[1], x[0]);
        break;
      case Op::kRedBlack:
        redblack(ex, plan, x[0], 0.4, 0.1);
        break;
      case Op::kRedBlackRhs:
        redblack_rhs(ex, plan, x[0], x[1], 0.4, 0.1);
        break;
      case Op::kResid:
      case Op::kResidDense:
        resid(ex, plan, x[0], x[1], x[2], resid_coeffs(op));
        break;
      case Op::kPsinvNas:
      case Op::kPsinvDense:
        psinv(ex, plan, x[0], x[1], psinv_coeffs(op));
        break;
    }
  }
}

Grids make_grids(int count, const Shape& s, bool padded) {
  Grids g;
  for (int i = 0; i < count; ++i) {
    g.push_back(make_grid(s.n1, s.n2, s.n3, 0.3 + 0.4 * i, padded ? s.p1 : 0,
                          padded ? s.p2 : 0));
  }
  return g;
}

/// operator x schedule x shape; each case runs every executor
/// configuration (threads x level).
using SweepParam = std::tuple<Op, Sched, Shape>;

class ExecSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ExecSweep, BitIdenticalToSerialAccessorKernel) {
  const auto [op, sched, s] = GetParam();
  const IterTile t{s.ti, s.tj};
  Grids ref = make_grids(num_grids(op), s, /*padded=*/false);
  run_reference(op, sched, t, ref);
  Runner runner;
  for (const Exec& ex : runner.execs()) {
    Grids got = make_grids(num_grids(op), s, /*padded=*/true);
    run_executor(op, ex, plan_of(sched, t), got);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_TRUE(logical_equal(ref[i], got[i]))
          << "grid " << i << describe(ex);
    }
  }
}

/// "RedBlack_Flat": the test-name stem of an operator and schedule.
std::string op_sched_name(Op op, Sched sched) {
  static const char* const kOps[] = {"Jacobi",     "RedBlack",
                                     "RedBlackRhs", "Resid",
                                     "PsinvNas",   "PsinvDense",
                                     "ResidDense"};
  static const char* const kScheds[] = {"Untiled", "Flat", "Recursive"};
  return std::string(kOps[static_cast<int>(op)]) + "_" +
         kScheds[static_cast<int>(sched)];
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [op, sched, s] = info.param;
  return op_sched_name(op, sched) + "_" + describe(s);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ExecSweep,
    ::testing::Combine(::testing::Values(Op::kJacobi, Op::kRedBlack,
                                         Op::kRedBlackRhs, Op::kResid,
                                         Op::kPsinvNas, Op::kPsinvDense,
                                         Op::kResidDense),
                       ::testing::Values(Sched::kUntiled, Sched::kFlat,
                                         Sched::kRecursive),
                       ::testing::ValuesIn(shapes())),
    sweep_name);

// --- Traced accessors: the operators on TracedArray3D ---

/// A small two-level hierarchy (1 KiB L1, 8 KiB L2, the paper's line
/// sizes and policies), so that any change in the traced address order
/// moves the miss counts of these small grids.
rt::cachesim::CacheHierarchy small_hierarchy() {
  rt::cachesim::CacheConfig l1 = rt::cachesim::CacheConfig::ultrasparc2_l1();
  rt::cachesim::CacheConfig l2 = rt::cachesim::CacheConfig::ultrasparc2_l2();
  l1.size_bytes = 1024;
  l2.size_bytes = 8192;
  return rt::cachesim::CacheHierarchy(l1, l2);
}

using Traced = rt::cachesim::TracedArray3D<double>;

/// The accessor oracle of @p op, kSteps times, as the simulated runner
/// wrote it by hand: each stencil's accessor nest on for_each_block's work
/// items with a null pool, except that red-black with a flat tiled plan
/// runs the paper's fused Fig. 12 walk; JACOBI copies back.
void traced_oracle(Op op, const TilingPlan& plan, std::vector<Traced>& x) {
  const auto blocks = [&](const BlockFn& body) {
    for_each_block(Exec{}, plan, x[0].n1(), x[0].n2(), x[0].n3(), body);
  };
  const bool fused =
      plan.tiled && plan.schedule != LoopSchedule::kRecursive;
  for (int step = 0; step < kSteps; ++step) {
    switch (op) {
      case Op::kJacobi:
        blocks([&](auto... box) {
          rt::kernels::jacobi3d(x[0], x[1], 1.0 / 6.0, box...);
        });
        rt::kernels::copy_interior(x[1], x[0]);
        break;
      case Op::kRedBlack:
        if (fused) {
          rt::kernels::redblack_tiled(x[0], 0.4, 0.1, plan.tile);
          break;
        }
        for (long parity = 0; parity < 2; ++parity) {
          blocks([&](auto... box) {
            rt::kernels::redblack_colour(x[0], 0.4, 0.1, parity, box...);
          });
        }
        break;
      case Op::kRedBlackRhs:
        if (fused) {
          rt::kernels::redblack_tiled_rhs(x[0], x[1], 0.4, 0.1, plan.tile);
          break;
        }
        for (long parity = 0; parity < 2; ++parity) {
          blocks([&](auto... box) {
            rt::kernels::redblack_colour_rhs(x[0], x[1], 0.4, 0.1, parity,
                                             box...);
          });
        }
        break;
      case Op::kResid:
      case Op::kResidDense:
        blocks([&](auto... box) {
          rt::kernels::resid(x[0], x[1], x[2], resid_coeffs(op), box...);
        });
        break;
      case Op::kPsinvNas:
      case Op::kPsinvDense:
        blocks([&](auto... box) {
          rt::kernels::psinv(x[0], x[1], psinv_coeffs(op), box...);
        });
        break;
    }
  }
}

/// Traced views of @p g, placed back to back from address 0.
std::vector<Traced> traced(Grids& g, rt::cachesim::CacheHierarchy& h) {
  std::vector<Traced> t;
  std::uint64_t base = 0;
  for (Array3D<double>& a : g) {
    t.emplace_back(a, base, h);
    base += static_cast<std::uint64_t>(a.dims().alloc_elems()) * 8;
  }
  return t;
}

bool same_counts(const rt::cachesim::HierarchyStats& a,
                 const rt::cachesim::HierarchyStats& b) {
  return a.l1.accesses == b.l1.accesses && a.l1.misses == b.l1.misses &&
         a.l2.accesses == b.l2.accesses && a.l2.misses == b.l2.misses;
}

using TracedParam = std::tuple<Op, Sched>;

class ExecTraced : public ::testing::TestWithParam<TracedParam> {};

TEST_P(ExecTraced, SameBitsAndCountsAsTheAccessorNestsInline) {
  const auto [op, sched] = GetParam();
  // Every Exec, pool or not, any level: a traced operator runs inline.
  ThreadPool three(3);
  const Exec execs[] = {Exec{}, Exec{nullptr, SimdLevel::kScalar},
                        Exec{&three, SimdLevel::kScalar},
                        Exec{&three, SimdLevel::kAvx2}};
  for (const Shape& s : {shapes()[5], shapes()[6], shapes()[12]}) {
    const TilingPlan plan = plan_of(sched, IterTile{s.ti, s.tj});
    Grids want = make_grids(num_grids(op), s, /*padded=*/true);
    rt::cachesim::CacheHierarchy hw = small_hierarchy();
    std::vector<Traced> tw = traced(want, hw);
    traced_oracle(op, plan, tw);
    for (const Exec& ex : execs) {
      Grids got = make_grids(num_grids(op), s, /*padded=*/true);
      rt::cachesim::CacheHierarchy hg = small_hierarchy();
      std::vector<Traced> tg = traced(got, hg);
      run_executor(op, ex, plan, tg);
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(logical_equal(want[i], got[i]))
            << "grid " << i << " " << describe(s) << describe(ex);
      }
      EXPECT_TRUE(same_counts(hw.stats(), hg.stats()))
          << describe(s) << describe(ex) << ": L1 "
          << hg.stats().l1.accesses << "/" << hg.stats().l1.misses
          << " L2 " << hg.stats().l2.accesses << "/" << hg.stats().l2.misses
          << ", want L1 " << hw.stats().l1.accesses << "/"
          << hw.stats().l1.misses << " L2 " << hw.stats().l2.accesses << "/"
          << hw.stats().l2.misses;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ExecTraced,
    ::testing::Combine(::testing::Values(Op::kJacobi, Op::kRedBlack,
                                         Op::kRedBlackRhs, Op::kResid,
                                         Op::kPsinvNas, Op::kPsinvDense,
                                         Op::kResidDense),
                       ::testing::Values(Sched::kUntiled, Sched::kFlat,
                                         Sched::kRecursive)),
    [](const ::testing::TestParamInfo<TracedParam>& info) {
      return op_sched_name(std::get<0>(info.param), std::get<1>(info.param));
    });

// --- The copy-back and the grid transfers ---

// The simulated JACOBI step's copy-back (rt::bench's runner) is the
// accessor copy nest on the block driver's work items: every schedule, on
// every pool width, covers the interior exactly once.
class ExecCopy : public ::testing::TestWithParam<Shape> {};

TEST_P(ExecCopy, BitIdenticalToSerialAccessorKernel) {
  const Shape s = GetParam();
  const Array3D<double> src = make_grid(s.n1, s.n2, s.n3, 0.9, s.p1, s.p2);
  Array3D<double> want = make_grid(s.n1, s.n2, s.n3, 0.2, 0, 0);
  rt::kernels::copy_interior(want, src);
  Runner runner;
  for (const Exec& ex : runner.execs()) {
    for (const Sched sched :
         {Sched::kUntiled, Sched::kFlat, Sched::kRecursive}) {
      Array3D<double> got = make_grid(s.n1, s.n2, s.n3, 0.2, s.p1, s.p2);
      for_each_block(ex, plan_of(sched, IterTile{s.ti, s.tj}), s.n1, s.n2,
                     s.n3, [&](auto... box) {
                       rt::kernels::copy_interior(got, src, box...);
                     });
      EXPECT_TRUE(logical_equal(want, got))
          << "sched " << static_cast<int>(sched) << describe(ex);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExecCopy, ::testing::ValuesIn(shapes()),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return describe(info.param);
    });

/// Coarse grids m with their fine grids 2m - 2 (the MgSolver level
/// relationship): the minimum n = 3, real level sizes, non-cubic grids,
/// and padded coarse grids whose fine grid gets a different, odd pad.
const std::vector<Shape>& coarse_shapes() {
  static const std::vector<Shape> kCoarse = {
      {3, 3, 3, 0, 0, 0, 0},   {5, 5, 5, 0, 0, 0, 0},
      {9, 9, 9, 0, 0, 0, 0},   {18, 18, 18, 0, 0, 0, 0},
      {3, 5, 7, 0, 0, 0, 0},   {12, 5, 9, 0, 0, 0, 0},
      {9, 9, 9, 0, 0, 13, 11}, {10, 6, 8, 0, 0, 16, 9},
      // Wide: several L2-sized slabs per thread on the fine grid.
      {1501, 13, 5, 0, 0, 0, 0}};
  return kCoarse;
}

/// (rprj3?, coarse shape): rprj3 sweeps the coarse planes,
/// interp_add the fine ones.
using TransferParam = std::tuple<bool, Shape>;

class ExecTransfer : public ::testing::TestWithParam<TransferParam> {};

TEST_P(ExecTransfer, BitIdenticalToSerialAccessorKernel) {
  const auto [is_rprj3, c] = GetParam();
  const long f1 = 2 * c.n1 - 2, f2 = 2 * c.n2 - 2, f3 = 2 * c.n3 - 2;
  const long fp1 = c.p1 > 0 ? 2 * c.p1 + 1 : 0;
  const long fp2 = c.p2 > 0 ? 2 * c.p2 - 1 : 0;
  Runner runner;
  if (is_rprj3) {
    const Array3D<double> r = make_grid(f1, f2, f3, 0.4, fp1, fp2);
    Array3D<double> want = make_grid(c.n1, c.n2, c.n3, 0.2, 0, 0);
    rt::kernels::rprj3(want, r);
    for (const Exec& ex : runner.execs()) {
      Array3D<double> got = make_grid(c.n1, c.n2, c.n3, 0.2, c.p1, c.p2);
      rprj3(ex, got, r);
      EXPECT_TRUE(logical_equal(want, got)) << describe(ex);
    }
    return;
  }
  const Array3D<double> z = make_grid(c.n1, c.n2, c.n3, 0.6, c.p1, c.p2);
  Array3D<double> want = make_grid(f1, f2, f3, 0.1, 0, 0);
  for (int step = 0; step < kSteps; ++step) rt::kernels::interp_add(want, z);
  for (const Exec& ex : runner.execs()) {
    Array3D<double> got = make_grid(f1, f2, f3, 0.1, fp1, fp2);
    for (int step = 0; step < kSteps; ++step) interp_add(ex, got, z);
    EXPECT_TRUE(logical_equal(want, got)) << describe(ex);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExecTransfer,
    ::testing::Combine(::testing::Bool(), ::testing::ValuesIn(coarse_shapes())),
    [](const ::testing::TestParamInfo<TransferParam>& info) {
      return std::string(std::get<0>(info.param) ? "Rprj3_" : "InterpAdd_") +
             describe(std::get<1>(info.param));
    });

// The transfer operators check how the two shapes relate, once per call:
// coarse m (>= 3) needs fine >= 2m - 3 for rprj3, fine n (>= 3) needs
// coarse > n / 2 for interp_add.  MgSolver's pair, fine 2m - 2 over coarse
// m, passes; one index short on any axis throws before writing anything.
TEST(ExecTransferShape, MgSolverPairAndTheLimitsRun) {
  ThreadPool two(2);
  for (const Exec& ex : {Exec{}, Exec{&two, SimdLevel::kAvx2}}) {
    for (const std::array<long, 3> m :
         {std::array<long, 3>{3, 3, 3}, {5, 4, 3}, {66, 3, 4}}) {
      for (const long extra : {0L, 1L}) {
        // rprj3 reads fine up to 2m - 4: fine 2m - 2 (the pair), 2m - 3.
        const long f1 = 2 * m[0] - 2 - extra, f2 = 2 * m[1] - 2 - extra,
                   f3 = 2 * m[2] - 2 - extra;
        const Array3D<double> r = make_grid(f1, f2, f3, 0.4, 0, 0);
        Array3D<double> want = make_grid(m[0], m[1], m[2], 0.2, 0, 0);
        Array3D<double> got = want;
        rt::kernels::rprj3(want, r);
        ASSERT_NO_THROW(rprj3(ex, got, r));
        EXPECT_TRUE(logical_equal(want, got)) << describe(ex);
      }
      for (const long extra : {0L, 1L}) {
        // interp_add reads coarse up to n / 2: fine 2m - 2 (the pair),
        // 2m - 1.
        const long f1 = 2 * m[0] - 2 + extra, f2 = 2 * m[1] - 2 + extra,
                   f3 = 2 * m[2] - 2 + extra;
        const Array3D<double> z = make_grid(m[0], m[1], m[2], 0.6, 0, 0);
        Array3D<double> want = make_grid(f1, f2, f3, 0.1, 0, 0);
        Array3D<double> got = want;
        rt::kernels::interp_add(want, z);
        ASSERT_NO_THROW(interp_add(ex, got, z));
        EXPECT_TRUE(logical_equal(want, got)) << describe(ex);
      }
    }
  }
}

TEST(ExecTransferShape, TooSmallGridThrowsBeforeWriting) {
  ThreadPool two(2);
  for (const Exec& ex : {Exec{}, Exec{&two, SimdLevel::kAvx2}}) {
    for (int axis = 0; axis < 3; ++axis) {
      long f[3] = {10, 10, 10}, c[3] = {6, 6, 6};
      f[axis] = 2 * c[axis] - 4;  // rprj3 would read fine 2 * 6 - 4 = 8
      const Array3D<double> r = make_grid(f[0], f[1], f[2], 0.4, 0, 0);
      Array3D<double> s = make_grid(c[0], c[1], c[2], 0.2, 0, 0);
      const Array3D<double> s0 = s;
      EXPECT_THROW(rprj3(ex, s, r), std::invalid_argument) << axis;
      EXPECT_TRUE(logical_equal(s0, s)) << axis;

      f[axis] = 2 * c[axis];  // interp_add would read coarse 12 / 2 = 6
      const Array3D<double> z = make_grid(c[0], c[1], c[2], 0.6, 0, 0);
      Array3D<double> u = make_grid(f[0], f[1], f[2], 0.1, 0, 0);
      const Array3D<double> u0 = u;
      EXPECT_THROW(interp_add(ex, u, z), std::invalid_argument) << axis;
      EXPECT_TRUE(logical_equal(u0, u)) << axis;
    }
    // An empty swept interior reads nothing, whatever the other grid.
    Array3D<double> s = make_grid(9, 2, 9, 0.2, 0, 0);
    EXPECT_NO_THROW(rprj3(ex, s, make_grid(3, 3, 3, 0.4, 0, 0)));
    Array3D<double> u = make_grid(20, 20, 2, 0.1, 0, 0);
    EXPECT_NO_THROW(interp_add(ex, u, make_grid(3, 3, 3, 0.6, 0, 0)));
  }
}

// --- The block driver itself ---

using Box = std::array<long, 6>;  // ilo, ihi, jlo, jhi, klo, khi

/// The work items for_each_block hands out, in the order they ran (sorted
/// when a multi-thread pool ran them).
std::vector<Box> blocks_of(const Exec& ex, const TilingPlan& plan, long n1,
                           long n2, long n3) {
  std::vector<Box> boxes;
  std::mutex m;
  for_each_block(ex, plan, n1, n2, n3,
                 [&](long i0, long i1, long j0, long j1, long k0, long k1) {
                   std::lock_guard<std::mutex> lk(m);
                   boxes.push_back({i0, i1, j0, j1, k0, k1});
                 });
  if (ex.pool != nullptr && ex.pool->num_threads() > 1) {
    std::sort(boxes.begin(), boxes.end());
  }
  return boxes;
}

TEST(ExecDriver, NullPoolRunsTheSerialTileOrder) {
  // jj-outer / ii-inner with ragged last tiles, full K: the accessor
  // kernels' tile walk.  A 1-thread pool runs the same sequence.
  const TilingPlan plan = plan_of(Sched::kFlat, IterTile{4, 3});
  std::vector<Box> want;
  for (long jj = 1; jj < 7; jj += 3) {
    for (long ii = 1; ii < 9; ii += 4) {
      want.push_back({ii, std::min(ii + 4, 9L), jj, std::min(jj + 3, 7L), 1, 4});
    }
  }
  EXPECT_EQ(blocks_of(Exec{}, plan, 10, 8, 5), want);
  ThreadPool one(1);
  EXPECT_EQ(blocks_of(Exec{&one}, plan, 10, 8, 5), want);
}

TEST(ExecDriver, UntiledPlanRunsJSlabs) {
  const long l2 = rt::core::host_cache_topology().data_bytes(2);
  // {n1, n2, n3}: J extents below, equal to and above the pool widths; a
  // wide grid whose slabs the L2 budget, not the width, sizes.
  const std::array<long, 3> grids[] = {
      {10, 8, 7}, {10, 4, 5}, {9, 3, 6}, {3000, 40, 4}, {64, 37, 5}};
  for (const auto& [n1, n2, n3] : grids) {
    const std::vector<Box> whole = {{1, n1 - 1, 1, n2 - 1, 1, n3 - 1}};
    EXPECT_EQ(blocks_of(Exec{}, TilingPlan{}, n1, n2, n3), whole);
    const long nj = n2 - 2;
    for (const int w : {1, 2, 3, 4}) {
      ThreadPool pool(w);
      const std::vector<Box> got =
          blocks_of(Exec{&pool}, TilingPlan{}, n1, n2, n3);
      const long count = slab_count(n1, nj, w, l2);
      ASSERT_EQ(static_cast<long>(got.size()), count)
          << n1 << "x" << n2 << " width " << w;
      EXPECT_TRUE(count % w == 0 || count == nj);
      // Sorted by jlo: full-I, full-K slabs, each starting where the last
      // ended, so J is covered exactly once.
      long next = 1;
      for (const Box& b : got) {
        EXPECT_EQ(b[0], 1);
        EXPECT_EQ(b[1], n1 - 1);
        EXPECT_EQ(b[2], next);
        EXPECT_GT(b[3], b[2]);
        EXPECT_LE(b[3] - b[2], (nj + count - 1) / count);
        EXPECT_EQ(b[4], 1);
        EXPECT_EQ(b[5], n3 - 1);
        next = b[3];
      }
      EXPECT_EQ(next, n2 - 1) << n1 << "x" << n2 << " width " << w;
    }
  }
}

/// Whether slabs of ceil(nj / count) rows keep the five-plane window
/// within half of @p l2.
bool window_fits(long n1, long nj, long count, long l2) {
  return ((nj + count - 1) / count + 2) * n1 * 8 * 5 <= l2 / 2;
}

TEST(SlabCount, SmallestMultipleOfTheWidthWhoseWindowFitsHalfTheL2) {
  const long l2 = 2L << 20;
  // n = 384: 64-row slabs (6 of them) on two threads; n <= 160: two slabs.
  EXPECT_EQ(slab_count(384, 382, 2, l2), 6);
  EXPECT_EQ(slab_count(160, 158, 2, l2), 2);
  EXPECT_EQ(slab_count(130, 128, 2, l2), 2);
  for (const long n1 : {10L, 130L, 384L, 1000L, 4000L}) {
    for (const long nj : {2L, 7L, 64L, 382L, 1000L}) {
      for (const int w : {1, 2, 3, 4, 8}) {
        const long c = slab_count(n1, nj, w, l2);
        if (!window_fits(n1, nj, nj, l2)) {
          EXPECT_EQ(c, nj);  // a single row overflows: 1-row slabs
          continue;
        }
        if (c == nj) continue;  // capped: one row per slab
        EXPECT_EQ(c % w, 0) << n1 << " " << nj << " " << w;
        EXPECT_TRUE(window_fits(n1, nj, c, l2)) << n1 << " " << nj;
        if (c > w) {
          EXPECT_FALSE(window_fits(n1, nj, c - w, l2)) << n1 << " " << nj;
        }
      }
    }
  }
}

TEST(SlabCount, Edges) {
  const long l2 = 2L << 20;
  // Fewer J rows than threads: one row per slab.
  EXPECT_EQ(slab_count(100, 3, 4, l2), 3);
  // One J row: one slab at any width.
  for (const int w : {1, 2, 4}) EXPECT_EQ(slab_count(100, 1, w, l2), 1);
  // A single row already overflows half the L2: 1-row slabs.
  EXPECT_EQ(slab_count(100000, 10, 2, l2), 10);
  EXPECT_EQ(slab_count(100000, 10, 1, l2), 10);
  // No J rows: no slab.
  EXPECT_EQ(slab_count(100, 0, 2, l2), 0);
  // A non-positive width counts as one thread.
  EXPECT_EQ(slab_count(384, 382, 0, l2), slab_count(384, 382, 1, l2));
}

TEST(SlabCount, UnprobedL2FallsBackToOneMiB) {
  for (const long l2 : {0L, -1L}) {
    EXPECT_EQ(slab_count(384, 382, 2, l2), slab_count(384, 382, 2, 1L << 20));
    EXPECT_EQ(slab_count(160, 158, 4, l2), slab_count(160, 158, 4, 1L << 20));
  }
  // 1 MiB: 32-row windows at n = 384, twelve slabs on two threads.
  EXPECT_EQ(slab_count(384, 382, 2, 0), 12);
}

TEST(ExecDriver, RecursivePlanRunsTheCoOverLeaves) {
  const long n1 = 40, n2 = 23, n3 = 6;
  const IterTile base{6, 4};
  std::vector<Box> leaves;
  co_over(1, n1 - 1, 1, n2 - 1, base.ti, base.tj,
          [&](long i0, long i1, long j0, long j1) {
            leaves.push_back({i0, i1, j0, j1, 1, n3 - 1});
          });
  const TilingPlan rec = plan_of(Sched::kRecursive, base);
  EXPECT_EQ(blocks_of(Exec{}, rec, n1, n2, n3), leaves);
  ThreadPool pool(4);
  std::vector<Box> sorted = leaves;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(blocks_of(Exec{&pool}, rec, n1, n2, n3), sorted);
  // Bisection leaves are not the flat tile grid of the same base tile.
  std::vector<Box> flat =
      blocks_of(Exec{}, plan_of(Sched::kFlat, base), n1, n2, n3);
  std::sort(flat.begin(), flat.end());
  EXPECT_NE(sorted, flat);
}

TEST(ExecDriver, DegenerateTilesAndEmptyInteriorsAreSafe) {
  const Array3D<double> b = make_grid(9, 7, 6, 0.1, 0, 0);
  Array3D<double> want(9, 7, 6);
  rt::kernels::jacobi3d(want, b, 1.0 / 6.0);
  // A flat tile with a non-positive extent runs as untiled; a
  // recursive one bottoms out at 1x1 leaves.  Both compute the sweep.
  for (const IterTile t : {IterTile{0, 5}, IterTile{3, -2}, IterTile{0, 0}}) {
    EXPECT_EQ(blocks_of(Exec{}, plan_of(Sched::kFlat, t), 9, 7, 6),
              blocks_of(Exec{}, TilingPlan{}, 9, 7, 6));
    for (const Sched s : {Sched::kFlat, Sched::kRecursive}) {
      Array3D<double> got(9, 7, 6);
      jacobi(Exec{}, plan_of(s, t), got, b, 1.0 / 6.0);
      EXPECT_TRUE(logical_equal(want, got))
          << "tile " << t.ti << "x" << t.tj << " sched " << int(s);
    }
  }
  // No interior point: no work item runs, nothing is written.
  ThreadPool pool(2);
  for (const Exec& ex : {Exec{}, Exec{&pool}}) {
    for (const Sched s : {Sched::kUntiled, Sched::kFlat, Sched::kRecursive}) {
      const TilingPlan plan = plan_of(s, IterTile{2, 2});
      EXPECT_TRUE(blocks_of(ex, plan, 2, 7, 6).empty());
      EXPECT_TRUE(blocks_of(ex, plan, 9, 1, 6).empty());
      EXPECT_TRUE(blocks_of(ex, plan, 9, 7, 2).empty());
      EXPECT_TRUE(blocks_of(ex, plan, 0, 0, 0).empty());
      Array3D<double> a(2, 7, 6, 5.0);
      const Array3D<double> src(2, 7, 6, 1.0);
      jacobi(ex, plan, a, src, 1.0 / 6.0);
      EXPECT_TRUE(logical_equal(a, Array3D<double>(2, 7, 6, 5.0)));
    }
  }
}

// --- The time-step call: run_steps ---

using rt::core::TemporalMode;
using rt::core::TemporalPlan;
using rt::kernels::KernelId;

const int kStepCounts[] = {-1, 0, 1, 2, 3, 5};

/// Where run_steps may run: the accessor nests inline, and every Runner
/// configuration of the row kernels.
std::vector<Exec> step_execs(Runner& runner) {
  std::vector<Exec> v{Exec{nullptr, SimdLevel::kScalar}};
  for (const Exec& ex : runner.execs()) v.push_back(ex);
  return v;
}

/// Start index of a JACOBI run: run_steps reads its start state from
/// arrays[tsteps % 2] (nothing runs for tsteps <= 0).
std::size_t start_of(int tsteps) {
  return static_cast<std::size_t>(tsteps > 0 ? tsteps % 2 : 0);
}

/// The serial accessor oracle of run_steps(id, tsteps) on @p x.  JACOBI is
/// jacobi3d_pingpong from x[start]: its result lands in x[0] for either
/// parity.
void step_oracle(KernelId id, int tsteps, Grids& x) {
  if (id == KernelId::kJacobi) {
    const std::size_t start = start_of(tsteps);
    rt::kernels::jacobi3d_pingpong(x[1 - start], x[start], 1.0 / 6.0, tsteps);
    return;
  }
  for (int t = 0; t < tsteps; ++t) {
    switch (id) {
      case KernelId::kRedBlack:
        rt::kernels::redblack_naive(x[0], 0.4, 0.1);
        break;
      case KernelId::kResid:
        rt::kernels::resid(x[0], x[1], x[2], rt::kernels::nas_mg_a());
        break;
      default:
        rt::kernels::psinv(x[0], x[1], rt::kernels::nas_mg_c());
        break;
    }
  }
}

using StepsParam = std::tuple<KernelId, Sched>;

class ExecSteps : public ::testing::TestWithParam<StepsParam> {};

TEST_P(ExecSteps, BitIdenticalToSerialAccessorOracle) {
  const auto [id, sched] = GetParam();
  const int arrays = rt::kernels::kernel_info(id).num_arrays;
  Runner runner;
  for (const Shape& s : {shapes()[0], shapes()[4], shapes()[5],
                         shapes()[12]}) {
    const TilingPlan plan = plan_of(sched, IterTile{s.ti, s.tj});
    for (const int tsteps : kStepCounts) {
      Grids want = make_grids(arrays, s, /*padded=*/false);
      step_oracle(id, tsteps, want);
      for (const Exec& ex : step_execs(runner)) {
        Grids got = make_grids(arrays, s, /*padded=*/true);
        run_steps(ex, id, plan, got, tsteps);
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_TRUE(logical_equal(want[i], got[i]))
              << "grid " << i << " " << describe(s) << " tsteps " << tsteps
              << describe(ex);
        }
      }
    }
  }
}

std::string steps_name(const ::testing::TestParamInfo<StepsParam>& info) {
  static const char* const kScheds[] = {"Untiled", "Flat", "Recursive"};
  const auto [id, sched] = info.param;
  return std::string(rt::kernels::kernel_info(id).name) + "_" +
         kScheds[static_cast<int>(sched)];
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ExecSteps,
    ::testing::Combine(::testing::Values(KernelId::kJacobi,
                                         KernelId::kRedBlack,
                                         KernelId::kResid, KernelId::kPsinv),
                       ::testing::Values(Sched::kUntiled, Sched::kFlat,
                                         Sched::kRecursive)),
    steps_name);

/// A skew or diamond plan for @p threads, made by the planner.
TemporalPlan temporal_plan(TemporalMode mode, long n1, long n2, long n3,
                           int tsteps, long bk, int threads) {
  return rt::core::temporal_plan_checked(mode, 1 << 22, n1, n2, n3,
                                         std::max(tsteps, 0), bk, threads)
      .plan;
}

TEST(ExecSteps, SkewAndDiamondMatchPingPong) {
  struct Grid {
    long n1, n2, n3, bk;
  };
  // Non-cubic grids; 10x12x6 has one diamond block for up to four threads,
  // so its triangles split into team > 1 J slices.
  const Grid grids[] = {{9, 7, 13, 3}, {6, 11, 20, 4}, {17, 9, 6, 2},
                        {10, 12, 6, 4}};
  Runner runner;
  bool split = false;
  for (const Grid& g : grids) {
    const Shape s{g.n1, g.n2, g.n3, 0, 0, 0, 0};
    for (const int tsteps : kStepCounts) {
      Grids want = make_grids(2, s, false);
      step_oracle(KernelId::kJacobi, tsteps, want);
      for (const TemporalMode mode :
           {TemporalMode::kSkew, TemporalMode::kDiamond}) {
        for (const Exec& ex : step_execs(runner)) {
          const int width = ex.pool != nullptr ? ex.pool->num_threads() : 1;
          const TemporalPlan tp =
              temporal_plan(mode, g.n1, g.n2, g.n3, tsteps, g.bk, width);
          split |= tp.team > 1;
          Grids got = make_grids(2, s, false);
          run_steps(ex, KernelId::kJacobi, TilingPlan{}, got, tsteps, tp);
          for (std::size_t i = 0; i < 2; ++i) {
            EXPECT_TRUE(logical_equal(want[i], got[i]))
                << "grid " << i << " " << describe(s) << " "
                << rt::core::temporal_mode_name(mode) << " tsteps " << tsteps
                << describe(ex);
          }
        }
      }
    }
  }
  EXPECT_TRUE(split) << "no diamond plan split its triangles in J";
}

TEST(ExecSteps, TemporalPlansRunJacobiOnly) {
  TemporalPlan tp;
  tp.mode = TemporalMode::kSkew;
  tp.bk = 2;
  for (const KernelId id :
       {KernelId::kRedBlack, KernelId::kResid, KernelId::kPsinv}) {
    Grids x = make_grids(rt::kernels::kernel_info(id).num_arrays,
                         shapes()[2], false);
    EXPECT_THROW(run_steps(Exec{}, id, TilingPlan{}, x, 1, tp),
                 std::invalid_argument);
  }
  EXPECT_THROW(for_each_step_block(Exec{}, TemporalPlan{}, 8, 8, 8,
                                   [](int, long, long, long, long, long,
                                      long) {}),
               std::invalid_argument);
}

/// Runs @p tp's schedule with a body that, at the start of each item,
/// requires every row (j, k) of its box to have finished exactly t steps
/// and every interior face-neighbour row at least t (the step t - 1 values
/// it reads), then marks the box's rows done.  On a multi-thread pool each
/// item lingers so that a missing stage barrier lets later items overtake.
/// Returns the number of violations, after checking every interior row
/// ran max(tsteps, 0) steps.
int schedule_violations(const Exec& ex, const TemporalPlan& tp, long n1,
                        long n2, long n3) {
  std::vector<std::atomic<int>> done(static_cast<std::size_t>(n2 * n3));
  const auto at = [&](long j, long k) -> std::atomic<int>& {
    return done[static_cast<std::size_t>(k * n2 + j)];
  };
  const auto interior = [&](long j, long k) {
    return j >= 1 && j < n2 - 1 && k >= 1 && k < n3 - 1;
  };
  const std::pair<long, long> kFaces[] = {{-1, 0}, {1, 0}, {0, -1}, {0, 1}};
  const bool linger = ex.pool != nullptr && ex.pool->num_threads() > 1;
  std::atomic<int> bad{0};
  for_each_step_block(
      ex, tp, n1, n2, n3,
      [&](int t, long i0, long i1, long j0, long j1, long k0, long k1) {
        if (i0 != 1 || i1 != n1 - 1) ++bad;
        for (long k = k0; k < k1; ++k) {
          for (long j = j0; j < j1; ++j) {
            if (!interior(j, k) || at(j, k).load() != t) {
              ++bad;
              continue;
            }
            for (const auto& [dj, dk] : kFaces) {
              if (interior(j + dj, k + dk) && at(j + dj, k + dk).load() < t) {
                ++bad;
              }
            }
          }
        }
        if (linger) std::this_thread::sleep_for(std::chrono::microseconds(200));
        for (long k = k0; k < k1; ++k) {
          for (long j = j0; j < j1; ++j) {
            if (interior(j, k)) at(j, k).fetch_add(1);
          }
        }
      });
  for (long k = 1; k < n3 - 1; ++k) {
    for (long j = 1; j < n2 - 1; ++j) {
      if (at(j, k).load() != std::max(tp.tsteps, 0)) ++bad;
    }
  }
  return bad.load();
}

TEST(ExecSteps, ScheduleRunsEachRowStepOnceAfterItsInputs) {
  ThreadPool two(2), four(4);
  const Exec execs[] = {Exec{}, Exec{&two}, Exec{&four}};
  for (const TemporalMode mode :
       {TemporalMode::kSkew, TemporalMode::kDiamond}) {
    for (const long n3 : {3L, 7L, 14L}) {
      for (const long bk : {0L, 1L, 2L, 3L, 5L, 40L}) {
        for (const int tsteps : kStepCounts) {
          for (const int team : {1, 3}) {
            TemporalPlan tp;
            tp.mode = mode;
            tp.tsteps = tsteps;
            tp.bk = bk;
            tp.tb = static_cast<int>(std::max(bk / 2, 1L));
            tp.team = team;
            for (const Exec& ex : execs) {
              EXPECT_EQ(schedule_violations(ex, tp, 6, 9, n3), 0)
                  << rt::core::temporal_mode_name(mode) << " n3 " << n3
                  << " bk " << bk << " tsteps " << tsteps << " team " << team
                  << describe(ex);
            }
          }
        }
      }
    }
  }
}

// --- Plane-ordered reduction ---

/// h = h * 31 + p: neither commutative nor associative across planes, so
/// any reordering of the combine would change the value.
std::uint64_t poly_combine(std::uint64_t h, std::uint64_t p) {
  return h * 31 + p;
}

std::uint64_t plane_value(long k) {
  return static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ull + 7;
}

TEST(ExecReducePlanes, CombinesInPlaneOrderForEveryPoolWidth) {
  for (const long n3 : {1L, 2L, 5L, 64L}) {
    std::uint64_t want = 3;
    for (long k = 0; k < n3; ++k) want = poly_combine(want, plane_value(k));
    EXPECT_EQ(reduce_planes(Exec{}, n3, std::uint64_t{3}, plane_value,
                            poly_combine),
              want)
        << "inline n3=" << n3;
    for (const int w : {1, 2, 4}) {
      ThreadPool pool(w);
      for (int rep = 0; rep < 10; ++rep) {
        ASSERT_EQ(reduce_planes(Exec{&pool}, n3, std::uint64_t{3},
                                plane_value, poly_combine),
                  want)
            << w << " threads n3=" << n3 << " rep " << rep;
      }
    }
  }
}

TEST(ExecReducePlanes, RunsEachPartialExactlyOnce) {
  const long n3 = 37;
  for (const int w : {0, 1, 2, 4}) {
    ThreadPool pool(w > 0 ? w : 1);
    const Exec ex{w > 0 ? &pool : nullptr};
    std::vector<std::atomic<int>> calls(n3);
    const long planes = reduce_planes(
        ex, n3, 0L,
        [&](long k) {
          calls[static_cast<std::size_t>(k)].fetch_add(1);
          return 1L;
        },
        [](long acc, long p) { return acc + p; });
    EXPECT_EQ(planes, n3) << w << " threads";
    for (long k = 0; k < n3; ++k) {
      EXPECT_EQ(calls[static_cast<std::size_t>(k)].load(), 1)
          << w << " threads, plane " << k;
    }
  }
}

TEST(ExecReducePlanes, ZeroAndOnePlaneAreSafe) {
  ThreadPool pool(2);
  for (const Exec& ex : {Exec{}, Exec{&pool}}) {
    int calls = 0;
    const auto counted = [&](long k) {
      ++calls;
      return plane_value(k);
    };
    EXPECT_EQ(reduce_planes(ex, 0, std::uint64_t{11}, counted, poly_combine),
              11u);
    EXPECT_EQ(reduce_planes(ex, -3, std::uint64_t{11}, counted, poly_combine),
              11u);
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(reduce_planes(ex, 1, std::uint64_t{11}, counted, poly_combine),
              poly_combine(11, plane_value(0)));
    EXPECT_EQ(calls, 1);
  }
}

// --- sum_squares: the 8-lane, plane-ordered sum of squares ---

/// The definition written out point by point: interior element i of a row
/// feeds lane (i - 1) mod 8, the lanes fold pairwise per plane, and the
/// planes add in order from 0.0.
double sum_squares_oracle(const Array3D<double>& a) {
  double total = 0.0;
  for (long k = 1; k < a.n3() - 1; ++k) {
    std::array<double, 8> l{};
    for (long j = 1; j < a.n2() - 1; ++j) {
      for (long i = 1; i < a.n1() - 1; ++i) {
        l[static_cast<std::size_t>((i - 1) % 8)] += a(i, j, k) * a(i, j, k);
      }
    }
    total += ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
  }
  return total;
}

TEST(ExecSumSquares, MatchesTheLaneDefinition) {
  // n1 - 2 interior points per row: 1, 3, 8, 9, 16, 128 — rows shorter
  // than the lanes, an exact multiple of 8, and ragged tails.
  for (const long n1 : {3L, 5L, 10L, 11L, 18L, 130L}) {
    const Array3D<double> a = make_grid(n1, 7, 5, 0.25 * n1, 0, 0);
    EXPECT_EQ(sum_squares(Exec{}, a), sum_squares_oracle(a)) << "n1=" << n1;
    const Array3D<double> b = make_grid(n1, 12, 9, 1.0 + n1, 0, 0);
    EXPECT_EQ(sum_squares(Exec{}, b), sum_squares_oracle(b)) << "n1=" << n1;
  }
}

TEST(ExecSumSquares, SameBitsForEveryPoolWidthAndLevel) {
  const Array3D<double> a = make_grid(37, 13, 21, 0.5, 0, 0);
  const double want = sum_squares(Exec{}, a);
  for (const SimdLevel lvl : {SimdLevel::kScalar, SimdLevel::kRows,
                              SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    EXPECT_EQ(sum_squares(Exec{nullptr, lvl}, a), want);
    for (const int w : {1, 2, 3, 4}) {
      ThreadPool pool(w);
      for (int rep = 0; rep < 5; ++rep) {
        ASSERT_EQ(sum_squares(Exec{&pool, lvl}, a), want)
            << w << " threads rep " << rep;
      }
    }
  }
}

TEST(ExecSumSquares, SkipsGhostsAndPadding) {
  const Array3D<double> plain = make_grid(19, 11, 6, 2.0, 0, 0);
  Array3D<double> padded(Dims3::padded(19, 11, 6, 24, 14));
  padded.fill(std::nan(""));
  for (long k = 1; k < 5; ++k) {
    for (long j = 1; j < 10; ++j) {
      for (long i = 1; i < 18; ++i) padded(i, j, k) = plain(i, j, k);
    }
  }
  ThreadPool pool(3);
  for (const Exec& ex : {Exec{}, Exec{&pool}}) {
    const double got = sum_squares(ex, padded);
    EXPECT_TRUE(std::isfinite(got));
    EXPECT_EQ(got, sum_squares(ex, plain));
  }
}

TEST(ExecSumSquares, EmptyInteriorIsZero) {
  for (const Dims3 d : {Dims3::unpadded(2, 5, 5), Dims3::unpadded(5, 2, 5),
                        Dims3::unpadded(5, 5, 2)}) {
    Array3D<double> a(d);
    a.fill(3.0);
    EXPECT_EQ(sum_squares(Exec{}, a), 0.0);
  }
}

// --- Red-black colour barrier ---

TEST(ExecRedBlack, ColourBarrierHoldsUnderManyThreads) {
  // With c1 = 0, c2 = 1 and a single red hot point, a correct schedule
  // zeroes the whole interior: the red sweep replaces every red point by
  // the sum of its (all-zero) black neighbours — including the hot point —
  // and the black sweep then reads only post-red (zero) values.  A black
  // update that ran before the barrier could read the stale 1.0 and leave
  // a nonzero black point behind.  Tiny tiles maximise the number of
  // concurrently executing items; repeat to shake out interleavings.
  ThreadPool pool(5);
  for (const Sched s : {Sched::kUntiled, Sched::kFlat, Sched::kRecursive}) {
    for (int rep = 0; rep < 50; ++rep) {
      Array3D<double> a(17, 13, 9);
      a(4, 4, 4) = 1.0;  // (4+4+4) even -> red
      redblack(Exec{&pool}, plan_of(s, IterTile{2, 2}), a, 0.0, 1.0);
      for (long k = 1; k < 8; ++k) {
        for (long j = 1; j < 12; ++j) {
          for (long i = 1; i < 16; ++i) {
            ASSERT_EQ(a(i, j, k), 0.0) << "sched " << int(s) << " rep "
                                       << rep << " at (" << i << "," << j
                                       << "," << k << ")";
          }
        }
      }
    }
  }
}

TEST(ExecRedBlack, RepeatedPoolRunsAreDeterministic) {
  // Scheduling nondeterminism must never leak into values: 20 runs on a
  // 4-thread pool all equal the serial result bit-for-bit.
  ThreadPool pool(4);
  Array3D<double> want = make_grid(19, 23, 10, 0.6, 0, 0);
  rt::kernels::redblack_naive(want, 0.4, 0.1);
  for (int rep = 0; rep < 20; ++rep) {
    Array3D<double> a = make_grid(19, 23, 10, 0.6, 0, 0);
    redblack(Exec{&pool}, plan_of(Sched::kFlat, IterTile{3, 2}), a, 0.4, 0.1);
    ASSERT_TRUE(logical_equal(want, a)) << "rep " << rep;
  }
}

// --- Store policy: the rule, and streaming stores bit for bit ---

/// A probed topology with data levels of the given capacities.
rt::core::CacheTopology topology(std::initializer_list<long> sizes) {
  rt::core::CacheTopology t;
  t.probed = true;
  int level = 0;
  for (const long bytes : sizes) {
    rt::core::CacheLevelInfo l;
    l.level = ++level;
    l.size_bytes = bytes;
    t.levels.push_back(l);
  }
  return t;
}

TEST(StorePolicy, StreamsOnlyPastTheProbedLastLevel) {
  const long llc = 300L << 20;
  const rt::core::CacheTopology host = topology({48L << 10, 2L << 20, llc});
  const rt::core::CacheTopology unprobed;
  for (const SimdLevel lvl : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    EXPECT_EQ(choose_stores(lvl, llc + 1, host, false), Stores::kStream);
    EXPECT_EQ(choose_stores(lvl, llc, host, false), Stores::kNormal);
    EXPECT_EQ(choose_stores(lvl, 17L << 20, host, false), Stores::kNormal);
    // A temporal plan re-reads its destination inside a wavefront.
    EXPECT_EQ(choose_stores(lvl, 4 * llc, host, true), Stores::kNormal);
    // Unprobed: never stream, although the fallback capacity is 32 MiB.
    EXPECT_EQ(choose_stores(lvl, 4 * llc, unprobed, false), Stores::kNormal);
  }
  // Only the AVX2 and AVX-512F row kernels have streaming stamps.
  EXPECT_EQ(choose_stores(SimdLevel::kScalar, 4 * llc, host, false),
            Stores::kNormal);
  EXPECT_EQ(choose_stores(SimdLevel::kRows, 4 * llc, host, false),
            Stores::kNormal);
  EXPECT_STREQ(stores_name(Stores::kStream), "stream");
  EXPECT_STREQ(stores_name(Stores::kNormal), "normal");
}

TEST(StorePolicy, StoresForCountsTheAllocationAgainstExecCaches) {
  const Array3D<double> a(Dims3::padded(5, 4, 3, 8, 4));  // 96 doubles
  const rt::core::CacheTopology fits = topology({768});
  const rt::core::CacheTopology smaller = topology({767});
  for (const SimdLevel lvl : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    EXPECT_EQ(stores_for(Exec{nullptr, lvl, &fits}, a), Stores::kNormal);
    EXPECT_EQ(stores_for(Exec{nullptr, lvl, &smaller}, a), Stores::kStream);
    // No topology given: this host's, whose last level holds a tiny grid.
    EXPECT_EQ(stores_for(Exec{nullptr, lvl}, a), Stores::kNormal);
  }
  EXPECT_EQ(stores_for(Exec{nullptr, SimdLevel::kRows, &smaller}, a),
            Stores::kNormal);
}

/// A last level of 64 B: every test grid exceeds it, so an executor that
/// reads this topology streams every write-only sweep.
const rt::core::CacheTopology& tiny_llc() {
  static const rt::core::CacheTopology t = topology({64});
  return t;
}

/// Every Runner configuration at kAvx2 and kAvx512, reading tiny_llc().
std::vector<Exec> stream_execs(Runner& runner) {
  std::vector<Exec> v;
  for (Exec ex : runner.execs()) {
    if (ex.lvl < SimdLevel::kAvx2) continue;
    ex.caches = &tiny_llc();
    v.push_back(ex);
  }
  return v;
}

/// Rows of every length from 3 to 17 (shorter than, equal to and longer
/// than one line), unpadded and with a leading dimension that is not a
/// multiple of 8, so rows start off a line boundary; plus rows long
/// enough for several whole lines between a head and a tail.
const std::vector<Shape>& stream_shapes() {
  static const std::vector<Shape> kShapes = [] {
    std::vector<Shape> v;
    for (long n1 = 3; n1 <= 17; ++n1) {
      v.push_back({n1, 5, 4, 3, 2, 0, 0});
      const long p1 = (n1 + 3) % 8 == 0 ? n1 + 4 : n1 + 3;
      v.push_back({n1, 5, 4, 3, 2, p1, 6});
    }
    v.push_back({67, 6, 5, 20, 3, 69, 7});
    v.push_back({130, 7, 4, 45, 2, 0, 0});
    return v;
  }();
  return kShapes;
}

class ExecStream : public ::testing::TestWithParam<Shape> {};

TEST_P(ExecStream, JacobiAndCopyMatchTheAccessorKernels) {
  const Shape s = GetParam();
  const IterTile t{s.ti, s.tj};
  Runner runner;
  for (const Sched sched : {Sched::kUntiled, Sched::kFlat, Sched::kRecursive}) {
    Grids want = make_grids(2, s, /*padded=*/false);
    run_reference(Op::kJacobi, sched, t, want);
    for (const Exec& ex : stream_execs(runner)) {
      Grids got = make_grids(2, s, /*padded=*/true);
      ASSERT_EQ(stores_for(ex, got[0]), Stores::kStream);
      run_executor(Op::kJacobi, ex, plan_of(sched, t), got);
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(logical_equal(want[i], got[i]))
            << "grid " << i << " sched " << static_cast<int>(sched)
            << describe(ex);
      }
    }
  }
}

TEST_P(ExecStream, RunStepsJacobiMatchesPingPong) {
  const Shape s = GetParam();
  Runner runner;
  for (const Sched sched : {Sched::kUntiled, Sched::kFlat, Sched::kRecursive}) {
    const TilingPlan plan = plan_of(sched, IterTile{s.ti, s.tj});
    for (int tsteps = 1; tsteps <= 5; ++tsteps) {
      Grids want = make_grids(2, s, /*padded=*/false);
      step_oracle(KernelId::kJacobi, tsteps, want);
      for (const Exec& ex : stream_execs(runner)) {
        Grids got = make_grids(2, s, /*padded=*/true);
        run_steps(ex, KernelId::kJacobi, plan, got, tsteps);
        EXPECT_TRUE(logical_equal(want[0], got[0]))
            << "tsteps " << tsteps << " sched " << static_cast<int>(sched)
            << describe(ex);
      }
    }
  }
}

TEST_P(ExecStream, InitMatchesKernelsInitGridAndLeavesPaddingAlone) {
  const Shape s = GetParam();
  const Dims3 d = s.p1 > 0 ? Dims3::padded(s.n1, s.n2, s.n3, s.p1, s.p2)
                           : Dims3::unpadded(s.n1, s.n2, s.n3);
  Array3D<double> want(d, -7.0);
  rt::kernels::init_grid(want, 0.5);
  Runner runner;
  std::vector<Exec> execs = stream_execs(runner);
  execs.push_back(Exec{nullptr, SimdLevel::kRows});
  execs.push_back(Exec{nullptr, SimdLevel::kScalar});
  for (const Exec& ex : execs) {
    Array3D<double> got(d, -7.0);
    init_grid(ex, got, 0.5);
    EXPECT_TRUE(std::equal(want.data(), want.data() + d.alloc_elems(),
                           got.data()))
        << describe(ex);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExecStream, ::testing::ValuesIn(stream_shapes()),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return describe(info.param);
    });

TEST(ExecStream, TemporalPlansStoreNormallyAndMatchPingPong) {
  // The wavefront re-reads its destination, so it never streams; the
  // result is the ping-pong's either way.
  Runner runner;
  const Shape s{13, 9, 12, 0, 0, 15, 10};
  for (const int tsteps : {2, 3}) {
    Grids want = make_grids(2, s, /*padded=*/false);
    step_oracle(KernelId::kJacobi, tsteps, want);
    for (const Exec& ex : stream_execs(runner)) {
      const int threads = ex.pool != nullptr ? ex.pool->num_threads() : 1;
      Grids got = make_grids(2, s, /*padded=*/true);
      run_steps(ex, KernelId::kJacobi, TilingPlan{}, got, tsteps,
                temporal_plan(TemporalMode::kSkew, s.n1, s.n2, s.n3, tsteps,
                              3, threads));
      EXPECT_TRUE(logical_equal(want[0], got[0]))
          << "tsteps " << tsteps << describe(ex);
    }
  }
}

// --- The checksum: its definition, the shell init and the fold ---

/// The checksum written out point by point: key(i, j, k) =
/// (splitmix64(j + 2^32 k) | 1) + i * S, term (rotl(w, 1) ^ key) * key.
std::uint64_t checksum_oracle(const Array3D<double>& a) {
  std::uint64_t sum = 0;
  for (long k = 0; k < a.n3(); ++k) {
    for (long j = 0; j < a.n2(); ++j) {
      std::uint64_t z = static_cast<std::uint64_t>(j) +
                        (static_cast<std::uint64_t>(k) << 32) +
                        0x9e3779b97f4a7c15ull;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      const std::uint64_t row = (z ^ (z >> 31)) | 1;
      for (long i = 0; i < a.n1(); ++i) {
        const std::uint64_t key =
            row + static_cast<std::uint64_t>(i) * 0x3c6ef372fe94f82aull;
        const std::uint64_t w = std::bit_cast<std::uint64_t>(a(i, j, k));
        sum += (std::rotl(w, 1) ^ key) * key;
      }
    }
  }
  return sum;
}

/// The checksum partial of @p a's interior (every index 1 .. n-2).
std::uint64_t interior_partial(const Array3D<double>& a) {
  if (a.n1() < 3 || a.n2() < 3 || a.n3() < 3) return 0;
  return checksum_sweep(a, 1, a.n1() - 1, 1, a.n2() - 1, 1, a.n3() - 1,
                        SimdLevel::kRows);
}

/// Every level, inline and on 1, 2 and 4 threads; kAvx2 and kAvx512 also
/// streaming, through a topology whose last level every test grid exceeds.
std::vector<Exec> fold_execs(Runner& runner) {
  std::vector<Exec> v;
  for (const SimdLevel lvl : {SimdLevel::kScalar, SimdLevel::kRows,
                              SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &runner.one,
                          &runner.two, &runner.four}) {
      v.push_back(Exec{p, lvl});
      if (lvl >= SimdLevel::kAvx2) v.push_back(Exec{p, lvl, &tiny_llc()});
    }
  }
  return v;
}

bool bits_equal(const Array3D<double>& a, const Array3D<double>& b) {
  return a.dims().alloc_elems() == b.dims().alloc_elems() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) *
                         static_cast<std::size_t>(a.dims().alloc_elems())) ==
             0;
}

TEST(ExecChecksum, MatchesTheDefinition) {
  // Rows shorter than, equal to and longer than a vector; padded grids
  // (the key is the logical position, never the padded offset).
  Runner runner;
  for (const Shape& s : {Shape{1, 1, 1, 0, 0, 0, 0}, Shape{3, 2, 2, 0, 0, 0, 0},
                         Shape{8, 3, 4, 0, 0, 0, 0}, Shape{19, 6, 5, 0, 0, 0, 0},
                         Shape{12, 18, 8, 0, 0, 17, 23},
                         Shape{130, 7, 4, 0, 0, 136, 9}}) {
    const Array3D<double> a = make_grid(s.n1, s.n2, s.n3, 0.7, s.p1, s.p2);
    const std::uint64_t want = checksum_oracle(a);
    for (const Exec& ex : step_execs(runner)) {
      EXPECT_EQ(checksum(ex, a), want) << describe(s) << describe(ex);
    }
  }
}

TEST(ExecChecksum, InitShellWritesTheShellAndReturnsItsPartial) {
  Runner runner;
  for (const Shape& s : {Shape{1, 1, 1, 0, 0, 0, 0}, Shape{2, 3, 4, 0, 0, 0, 0},
                         Shape{3, 3, 3, 0, 0, 0, 0}, Shape{5, 1, 4, 0, 0, 0, 0},
                         Shape{9, 7, 6, 0, 0, 0, 0},
                         Shape{12, 18, 8, 0, 0, 17, 23}}) {
    const Dims3 d = s.p1 > 0 ? Dims3::padded(s.n1, s.n2, s.n3, s.p1, s.p2)
                             : Dims3::unpadded(s.n1, s.n2, s.n3);
    Array3D<double> want(d, std::nan(""));
    rt::kernels::init_grid_shell(want, 0.75);
    for (const Exec& ex : step_execs(runner)) {
      Array3D<double> got(d, std::nan(""));
      const std::uint64_t shell = init_shell(ex, got, 0.75);
      EXPECT_TRUE(bits_equal(want, got)) << describe(s) << describe(ex);
      EXPECT_EQ(shell + interior_partial(got), checksum_oracle(got))
          << describe(s) << describe(ex);
    }
  }
}

/// Cubic, non-cubic, padded (rows off a line boundary), and n1 not a
/// multiple of 8 with rows long enough for whole streamed lines.
const Shape kFoldShapes[] = {{10, 10, 10, 3, 4, 0, 0},
                             {13, 7, 9, 5, 2, 0, 0},
                             {12, 9, 8, 5, 4, 17, 11},
                             {37, 6, 5, 9, 3, 0, 0}};

TEST(ExecChecksum, FoldEqualsTheStandalonePass) {
  // run_steps' JACOBI with a checksum sink: the grid bits are the
  // oracle's, and the sink plus the shell's partial is the result's
  // checksum, for every plan, pool width, level, store policy and tsteps.
  Runner runner;
  const std::vector<Exec> execs = fold_execs(runner);
  for (const Shape& s : kFoldShapes) {
    for (const Sched sched : {Sched::kUntiled, Sched::kFlat,
                              Sched::kRecursive}) {
      const TilingPlan plan = plan_of(sched, IterTile{s.ti, s.tj});
      for (const int tsteps : {0, 1, 2, 3}) {
        Grids want = make_grids(2, s, /*padded=*/false);
        step_oracle(KernelId::kJacobi, tsteps, want);
        for (const Exec& ex : execs) {
          Grids got = make_grids(2, s, /*padded=*/true);
          if (ex.caches != nullptr) {
            ASSERT_EQ(stores_for(ex, got[0]), Stores::kStream);
          }
          std::uint64_t sum = 0;
          run_steps(ex, KernelId::kJacobi, plan, got, tsteps, {}, &sum);
          ASSERT_TRUE(logical_equal(want[0], got[0]))
              << describe(s) << " tsteps " << tsteps << describe(ex);
          EXPECT_EQ(sum, interior_partial(got[0]))
              << describe(s) << " sched " << static_cast<int>(sched)
              << " tsteps " << tsteps << describe(ex)
              << (ex.caches != nullptr ? " stream" : "");
          sum += init_shell(ex, got[0], 1.0);
          EXPECT_EQ(sum, checksum(ex, got[0]))
              << describe(s) << " tsteps " << tsteps << describe(ex);
        }
      }
    }
  }
}

TEST(ExecChecksum, EveryOtherPathAddsTheInteriorsPartial) {
  // REDBLACK, RESID, PSINV and temporal JACOBI plans read the interior
  // once more after their steps; the bits are those of a run without it.
  Runner runner;
  const Shape s = kFoldShapes[2];
  const TilingPlan plan = plan_of(Sched::kFlat, IterTile{s.ti, s.tj});
  for (const Exec& ex : step_execs(runner)) {
    for (const int tsteps : {-1, 0, 1, 2}) {
      for (const KernelId id :
           {KernelId::kRedBlack, KernelId::kResid, KernelId::kPsinv}) {
        const int arrays = rt::kernels::kernel_info(id).num_arrays;
        Grids want = make_grids(arrays, s, /*padded=*/true);
        run_steps(ex, id, plan, want, tsteps);
        Grids got = make_grids(arrays, s, /*padded=*/true);
        std::uint64_t sum = 7;
        run_steps(ex, id, plan, got, tsteps, {}, &sum);
        EXPECT_TRUE(bits_equal(want[0], got[0]));
        EXPECT_EQ(sum - 7, interior_partial(got[0]))
            << rt::kernels::kernel_info(id).name << " tsteps " << tsteps
            << describe(ex);
      }
      if (tsteps < 1) continue;
      const int threads = ex.pool != nullptr ? ex.pool->num_threads() : 1;
      for (const TemporalMode mode : {TemporalMode::kSkew,
                                      TemporalMode::kDiamond}) {
        const TemporalPlan tp =
            temporal_plan(mode, s.n1, s.n2, s.n3, tsteps, 3, threads);
        Grids want = make_grids(2, s, /*padded=*/true);
        run_steps(ex, KernelId::kJacobi, TilingPlan{}, want, tsteps, tp);
        Grids got = make_grids(2, s, /*padded=*/true);
        std::uint64_t sum = 0;
        run_steps(ex, KernelId::kJacobi, TilingPlan{}, got, tsteps, tp, &sum);
        EXPECT_TRUE(bits_equal(want[0], got[0]));
        EXPECT_EQ(sum, interior_partial(got[0]))
            << "temporal tsteps " << tsteps << describe(ex);
      }
    }
  }
}

}  // namespace
}  // namespace rt::simd
