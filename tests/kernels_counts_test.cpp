// Access accounting for the tiled schedules: the accessor nests run on the
// block driver's flat tiles and recursive leaves, and the fused tiled
// red-black nest.  Tiling reorders iterations but must not change how many
// accesses each interior point makes — the cost difference is purely in
// cache behaviour, never in work.

#include <gtest/gtest.h>

#include <cmath>

#include "rt/array/array3d.hpp"
#include "rt/cachesim/hierarchy.hpp"
#include "rt/cachesim/traced_array.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/kernels/redblack.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/kernels/psinv.hpp"
#include "rt/simd/exec.hpp"

namespace rt::kernels {
namespace {

using rt::array::Array3D;
using rt::cachesim::CacheHierarchy;
using rt::cachesim::TracedArray3D;
using rt::core::IterTile;
using rt::core::LoopSchedule;

Array3D<double> grid(long n, long kd, double s) {
  Array3D<double> a(n, n, kd);
  for (long k = 0; k < kd; ++k)
    for (long j = 0; j < n; ++j)
      for (long i = 0; i < n; ++i) a(i, j, k) = std::sin(s + i + 2 * j + 3 * k);
  return a;
}

/// Run @p nest on the work items of a plan with tile @p t and schedule
/// @p s, inline in index order.
template <class Nest>
void on_blocks(IterTile t, LoopSchedule s, long n, long kd, Nest&& nest) {
  rt::core::TilingPlan plan;
  plan.tiled = true;
  plan.tile = t;
  plan.schedule = s;
  rt::simd::for_each_block({}, plan, n, n, kd, nest);
}

// Each tile runs under both block schedules: the flat JI tile grid and the
// recursive leaves down to the same base tile.
constexpr LoopSchedule kSchedules[] = {LoopSchedule::kTiled,
                                       LoopSchedule::kRecursive};

class TiledCounts : public ::testing::TestWithParam<IterTile> {};

TEST_P(TiledCounts, JacobiTiledSameAccessCount) {
  const IterTile t = GetParam();
  const long n = 18, kd = 10;
  const std::uint64_t pts = (n - 2) * (n - 2) * (kd - 2);
  for (const LoopSchedule s : kSchedules) {
    Array3D<double> a(n, n, kd), b = grid(n, kd, 0.1);
    CacheHierarchy h = CacheHierarchy::ultrasparc2();
    TracedArray3D<double> ta(a, 0, h), tb(b, 1 << 22, h);
    on_blocks(t, s, n, kd,
              [&](auto... box) { jacobi3d(ta, tb, 1.0 / 6.0, box...); });
    EXPECT_EQ(h.stats().l1.accesses, 7u * pts) << static_cast<int>(s);
  }
}

TEST_P(TiledCounts, ResidTiledSameAccessCount) {
  const IterTile t = GetParam();
  const long n = 14, kd = 9;
  const std::uint64_t pts = (n - 2) * (n - 2) * (kd - 2);
  for (const LoopSchedule s : kSchedules) {
    Array3D<double> r(n, n, kd), v = grid(n, kd, 0.2), u = grid(n, kd, 0.3);
    CacheHierarchy h = CacheHierarchy::ultrasparc2();
    TracedArray3D<double> tr(r, 0, h), tv(v, 1 << 22, h), tu(u, 2 << 22, h);
    on_blocks(t, s, n, kd,
              [&](auto... box) { resid(tr, tv, tu, nas_mg_a(), box...); });
    EXPECT_EQ(h.stats().l1.accesses, 29u * pts) << static_cast<int>(s);
  }
}

TEST_P(TiledCounts, RedBlackTiledSameAccessCount) {
  const IterTile t = GetParam();
  const long n = 16, kd = 12;
  const std::uint64_t pts = (n - 2) * (n - 2) * (kd - 2);
  {  // the paper's fused tiled nest
    Array3D<double> a = grid(n, kd, 0.4);
    CacheHierarchy h = CacheHierarchy::ultrasparc2();
    TracedArray3D<double> ta(a, 0, h);
    redblack_tiled(ta, 0.4, 0.1, t);
    EXPECT_EQ(h.stats().l1.accesses, 8u * pts);
  }
  for (const LoopSchedule s : kSchedules) {  // one colour per driver call
    Array3D<double> a = grid(n, kd, 0.4);
    CacheHierarchy h = CacheHierarchy::ultrasparc2();
    TracedArray3D<double> ta(a, 0, h);
    for (long parity = 0; parity < 2; ++parity) {
      on_blocks(t, s, n, kd, [&](auto... box) {
        redblack_colour(ta, 0.4, 0.1, parity, box...);
      });
    }
    EXPECT_EQ(h.stats().l1.accesses, 8u * pts) << static_cast<int>(s);
  }
}

TEST_P(TiledCounts, PsinvTiledSameAccessCount) {
  const IterTile t = GetParam();
  const long n = 14, kd = 9;
  const std::uint64_t pts = (n - 2) * (n - 2) * (kd - 2);
  for (const LoopSchedule s : kSchedules) {
    Array3D<double> u = grid(n, kd, 0.5), r = grid(n, kd, 0.6);
    CacheHierarchy h = CacheHierarchy::ultrasparc2();
    TracedArray3D<double> tu(u, 0, h), tr_(r, 1 << 22, h);
    on_blocks(t, s, n, kd, [&](auto... box) {
      rt::kernels::psinv(tu, tr_, rt::kernels::nas_mg_c(), box...);
    });
    EXPECT_EQ(h.stats().l1.accesses, 29u * pts) << static_cast<int>(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Tiles, TiledCounts,
                         ::testing::Values(IterTile{1, 1}, IterTile{3, 4},
                                           IterTile{5, 5}, IterTile{16, 2},
                                           IterTile{2, 16}, IterTile{30, 30},
                                           IterTile{7, 11}));

TEST(Counts, ReadsVsWritesSplit) {
  const long n = 10, kd = 8;
  const std::uint64_t pts = (n - 2) * (n - 2) * (kd - 2);
  Array3D<double> a(n, n, kd), b = grid(n, kd, 0.7);
  CacheHierarchy h = CacheHierarchy::ultrasparc2();
  TracedArray3D<double> ta(a, 0, h), tb(b, 1 << 22, h);
  jacobi3d(ta, tb, 1.0 / 6.0);
  EXPECT_EQ(h.stats().l1.read_accesses, 6u * pts);
  EXPECT_EQ(h.stats().l1.write_accesses, 1u * pts);
}

TEST(Counts, CopyInteriorAccounting) {
  const long n = 10, kd = 8;
  const std::uint64_t pts = (n - 2) * (n - 2) * (kd - 2);
  Array3D<double> a = grid(n, kd, 0.8), b(n, n, kd);
  CacheHierarchy h = CacheHierarchy::ultrasparc2();
  TracedArray3D<double> ta(a, 0, h), tb(b, 1 << 22, h);
  copy_interior(tb, ta);
  EXPECT_EQ(h.stats().l1.accesses, 2u * pts);
  EXPECT_EQ(h.stats().l1.write_accesses, pts);
}

}  // namespace
}  // namespace rt::kernels
