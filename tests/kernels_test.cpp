// Kernel correctness: each accessor nest run on the block driver's flat
// tiles and recursive leaves must compute bitwise-identical results to the
// whole-interior nest for many problem/tile shapes, the fused
// red-black ordering must match the naive two-pass ordering, access
// counts must match the registry, and the shell-only grid init must write
// init_grid's bits on the shell and nothing anywhere else.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/cachesim/hierarchy.hpp"
#include "rt/cachesim/traced_array.hpp"
#include "rt/kernels/jacobi2d.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/kernels/redblack.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/simd/exec.hpp"

namespace rt::kernels {
namespace {

using rt::array::Array3D;
using rt::array::Dims3;
using rt::core::IterTile;
using rt::core::LoopSchedule;

Array3D<double> make_grid(long n1, long n2, long n3, double seed,
                          long p1 = 0, long p2 = 0) {
  Dims3 d = (p1 > 0) ? Dims3::padded(n1, n2, n3, p1, p2)
                     : Dims3::unpadded(n1, n2, n3);
  Array3D<double> a(d);
  for (long k = 0; k < n3; ++k) {
    for (long j = 0; j < n2; ++j) {
      for (long i = 0; i < n1; ++i) {
        a(i, j, k) = std::sin(seed + 0.1 * i + 0.2 * j + 0.3 * k);
      }
    }
  }
  return a;
}

bool interiors_equal(const Array3D<double>& a, const Array3D<double>& b) {
  for (long k = 0; k < a.n3(); ++k) {
    for (long j = 0; j < a.n2(); ++j) {
      for (long i = 0; i < a.n1(); ++i) {
        if (a(i, j, k) != b(i, j, k)) return false;  // bitwise
      }
    }
  }
  return true;
}

struct Shape {
  long n, k, ti, tj;
};

/// Run @p nest on the work items of a plan with tile @p t and schedule
/// @p s over an n x n x kd grid, inline in index order.
template <class Nest>
void on_blocks(IterTile t, LoopSchedule s, long n, long kd, Nest&& nest) {
  rt::core::TilingPlan plan;
  plan.tiled = true;
  plan.tile = t;
  plan.schedule = s;
  rt::simd::for_each_block({}, plan, n, n, kd, nest);
}

// The block schedules a tile runs under: the flat JI tile grid (paper
// Fig. 6) and the recursive leaves down to the same base tile.
constexpr LoopSchedule kSchedules[] = {LoopSchedule::kTiled,
                                       LoopSchedule::kRecursive};

class TiledEquivalence : public ::testing::TestWithParam<Shape> {};

TEST_P(TiledEquivalence, Jacobi3dTiledMatchesOrig) {
  const auto [n, kd, ti, tj] = GetParam();
  Array3D<double> b = make_grid(n, n, kd, 0.5);
  Array3D<double> a1(n, n, kd);
  jacobi3d(a1, b, 1.0 / 6.0);
  for (const LoopSchedule s : kSchedules) {
    Array3D<double> a2(n, n, kd);
    on_blocks(IterTile{ti, tj}, s, n, kd,
              [&](auto... box) { jacobi3d(a2, b, 1.0 / 6.0, box...); });
    EXPECT_TRUE(interiors_equal(a1, a2)) << static_cast<int>(s);
  }
}

TEST_P(TiledEquivalence, ResidTiledMatchesOrig) {
  const auto [n, kd, ti, tj] = GetParam();
  Array3D<double> u = make_grid(n, n, kd, 0.1);
  Array3D<double> v = make_grid(n, n, kd, 0.7);
  Array3D<double> r1(n, n, kd);
  const ResidCoeffs a = nas_mg_a();
  resid(r1, v, u, a);
  for (const LoopSchedule s : kSchedules) {
    Array3D<double> r2(n, n, kd);
    on_blocks(IterTile{ti, tj}, s, n, kd,
              [&](auto... box) { resid(r2, v, u, a, box...); });
    EXPECT_TRUE(interiors_equal(r1, r2)) << static_cast<int>(s);
  }
}

TEST_P(TiledEquivalence, RedBlackFusedMatchesNaive) {
  const auto [n, kd, ti, tj] = GetParam();
  (void)ti;
  (void)tj;
  Array3D<double> a1 = make_grid(n, n, kd, 0.3);
  Array3D<double> a2 = a1;
  redblack_naive(a1, 0.4, 0.1);
  redblack_fused(a2, 0.4, 0.1);
  EXPECT_TRUE(interiors_equal(a1, a2));
}

TEST_P(TiledEquivalence, RedBlackTiledMatchesNaive) {
  const auto [n, kd, ti, tj] = GetParam();
  Array3D<double> a1 = make_grid(n, n, kd, 0.3);
  Array3D<double> a2 = a1;
  redblack_naive(a1, 0.4, 0.1);
  redblack_tiled(a2, 0.4, 0.1, IterTile{ti, tj});
  EXPECT_TRUE(interiors_equal(a1, a2));
  // One colour per driver call on the tiles / recursive leaves.
  for (const LoopSchedule s : kSchedules) {
    Array3D<double> a3 = make_grid(n, n, kd, 0.3);
    for (long parity = 0; parity < 2; ++parity) {
      on_blocks(IterTile{ti, tj}, s, n, kd, [&](auto... box) {
        redblack_colour(a3, 0.4, 0.1, parity, box...);
      });
    }
    EXPECT_TRUE(interiors_equal(a1, a3)) << static_cast<int>(s);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TiledEquivalence,
    ::testing::Values(Shape{8, 8, 3, 3}, Shape{8, 8, 1, 1}, Shape{9, 7, 2, 5},
                      Shape{16, 10, 5, 4}, Shape{17, 9, 4, 4},
                      Shape{23, 11, 7, 3}, Shape{32, 8, 30, 30},
                      Shape{33, 12, 16, 8}, Shape{40, 30, 13, 22},
                      Shape{41, 6, 41, 1}, Shape{12, 30, 100, 100},
                      Shape{25, 25, 6, 6}, Shape{64, 10, 22, 13},
                      Shape{31, 31, 29, 2}));

TEST(TiledEquivalence, MultiStepRedBlackStaysEqual) {
  // Several full sweeps: divergence anywhere would compound and be caught.
  Array3D<double> a1 = make_grid(20, 20, 12, 0.9);
  Array3D<double> a2 = a1;
  for (int t = 0; t < 4; ++t) {
    redblack_naive(a1, 0.4, 0.1);
    redblack_tiled(a2, 0.4, 0.1, IterTile{5, 3});
  }
  EXPECT_TRUE(interiors_equal(a1, a2));
}

TEST(TiledEquivalence, PaddedArraysComputeSameValues) {
  // Padding changes layout, never values.
  Array3D<double> b1 = make_grid(12, 12, 8, 0.2);
  Array3D<double> b2 = make_grid(12, 12, 8, 0.2, 17, 19);
  Array3D<double> a1(12, 12, 8);
  Array3D<double> a2(Dims3::padded(12, 12, 8, 17, 19));
  jacobi3d(a1, b1, 1.0 / 6.0);
  on_blocks(IterTile{5, 4}, LoopSchedule::kTiled, 12, 8,
            [&](auto... box) { jacobi3d(a2, b2, 1.0 / 6.0, box...); });
  EXPECT_TRUE(interiors_equal(a1, a2));
}

TEST(Jacobi2d, ComputesStencil) {
  rt::array::Array2D<double> b(5, 5), a(5, 5);
  for (long j = 0; j < 5; ++j)
    for (long i = 0; i < 5; ++i) b(i, j) = i + 10.0 * j;
  jacobi2d(a, b, 0.25);
  EXPECT_DOUBLE_EQ(a(2, 2), 0.25 * ((1 + 10 * 2) + (3 + 10 * 2) +
                                    (2 + 10 * 1) + (2 + 10 * 3)));
}

TEST(Jacobi3d, KnownValue) {
  Array3D<double> b(5, 5, 5), a(5, 5, 5);
  for (long k = 0; k < 5; ++k)
    for (long j = 0; j < 5; ++j)
      for (long i = 0; i < 5; ++i) b(i, j, k) = i + 10.0 * j + 100.0 * k;
  jacobi3d(a, b, 1.0);
  // Six neighbours of (2,2,2): sum = 6*222 (symmetric +/-1 per axis).
  EXPECT_DOUBLE_EQ(a(2, 2, 2), 6.0 * 222.0);
}

TEST(Resid, ZeroUMeansResidualEqualsV) {
  Array3D<double> u(6, 6, 6);  // zeros
  Array3D<double> v = make_grid(6, 6, 6, 0.4);
  Array3D<double> r(6, 6, 6);
  resid(r, v, u, nas_mg_a());
  for (long k = 1; k < 5; ++k)
    for (long j = 1; j < 5; ++j)
      for (long i = 1; i < 5; ++i) EXPECT_EQ(r(i, j, k), v(i, j, k));
}

TEST(Resid, ConstantUHasZeroResidualWithBalancedStencil) {
  // sum of coefficients: a0 + 6 a1 + 12 a2 + 8 a3 with the NAS vector:
  // -8/3 + 0 + 2 + 2/3 = 0, so A * constant = 0.
  Array3D<double> u(8, 8, 8, 3.5);
  Array3D<double> v(8, 8, 8);
  Array3D<double> r(8, 8, 8, 99.0);
  resid(r, v, u, nas_mg_a());
  for (long k = 1; k < 7; ++k)
    for (long j = 1; j < 7; ++j)
      for (long i = 1; i < 7; ++i) EXPECT_NEAR(r(i, j, k), 0.0, 1e-12);
}

TEST(RedBlack, UpdatesUseFreshNeighbours) {
  // Black points must see *updated* red values: with c1=0, c2=1 and a
  // one-hot red point, its black neighbours receive the new red value.
  Array3D<double> a(5, 5, 5);
  a(2, 2, 2) = 1.0;  // (2+2+2) even -> red
  redblack_naive(a, 0.0, 1.0);
  // Red pass: (2,2,2) gets sum of 6 black neighbours = 0.
  EXPECT_EQ(a(2, 2, 2), 0.0);
}

TEST(KernelInfo, RegistryComplete) {
  EXPECT_EQ(all_kernels().size(), 3u);
  EXPECT_EQ(kernel_info(KernelId::kJacobi).name, "JACOBI");
  EXPECT_EQ(kernel_info(KernelId::kRedBlack).spec.atd, 4);
  EXPECT_EQ(kernel_info(KernelId::kResid).accesses_per_point, 29u);
}

TEST(KernelInfo, AccessCountsMatchTrace) {
  // Run each kernel traced and check accesses == accesses_per_point *
  // interior points (stencil nests only).
  const long n = 10, kd = 8;
  const std::uint64_t pts = (n - 2) * (n - 2) * (kd - 2);
  rt::cachesim::CacheHierarchy h = rt::cachesim::CacheHierarchy::ultrasparc2();

  {  // JACOBI
    Array3D<double> a(n, n, kd), b = make_grid(n, n, kd, 0.1);
    rt::cachesim::TracedArray3D<double> ta(a, 0, h), tb(b, 1 << 20, h);
    jacobi3d(ta, tb, 1.0 / 6.0);
    EXPECT_EQ(h.stats().l1.accesses,
              kernel_info(KernelId::kJacobi).accesses_per_point * pts);
  }
  h.reset_stats();
  {  // REDBLACK (full sweep = both colours)
    Array3D<double> a = make_grid(n, n, kd, 0.2);
    rt::cachesim::TracedArray3D<double> ta(a, 0, h);
    redblack_naive(ta, 0.4, 0.1);
    EXPECT_EQ(h.stats().l1.accesses,
              kernel_info(KernelId::kRedBlack).accesses_per_point * pts);
  }
  h.reset_stats();
  {  // RESID
    Array3D<double> r(n, n, kd), v = make_grid(n, n, kd, 0.3),
                    u = make_grid(n, n, kd, 0.4);
    rt::cachesim::TracedArray3D<double> tr(r, 0, h), tv(v, 1 << 20, h),
        tu(u, 2 << 20, h);
    resid(tr, tv, tu, nas_mg_a());
    EXPECT_EQ(h.stats().l1.accesses,
              kernel_info(KernelId::kResid).accesses_per_point * pts);
  }
}

TEST(InitGrid, ShellWritesInitGridBitsOnTheShellAndNothingElse) {
  // A sentinel fills interior and padding; init_grid_shell must overwrite
  // exactly the logical points with some index at 0 or extent - 1, with
  // init_grid's bits, on every pool width.
  const double sentinel = -7.25;
  const std::vector<Dims3> shapes = {
      Dims3::unpadded(1, 1, 1),         Dims3::unpadded(2, 5, 3),
      Dims3::unpadded(3, 3, 3),         Dims3::padded(7, 5, 4, 9, 6),
      Dims3::padded(13, 4, 9, 16, 5),   Dims3::unpadded(6, 1, 17),
      Dims3::padded(12, 12, 12, 13, 14)};
  rt::par::ThreadPool p1(1), p2(2), p4(4);
  for (rt::par::ThreadPool* pool :
       std::vector<rt::par::ThreadPool*>{nullptr, &p1, &p2, &p4}) {
    for (const Dims3& d : shapes) {
      for (const double scale : {1.0, 0.5, 1.0 / 3.0}) {
        Array3D<double> full(d, sentinel), shell(d, sentinel);
        init_grid(full, scale);
        init_grid_shell(shell, scale, pool);
        long shell_points = 0;
        for (long e = 0; e < d.alloc_elems(); ++e) {
          const long k = e / d.plane_stride();
          const long j = (e % d.plane_stride()) / d.p1;
          const long i = e % d.p1;
          const bool logical = i < d.n1 && j < d.n2;
          const bool on_shell = logical && (i == 0 || i == d.n1 - 1 || j == 0 ||
                                            j == d.n2 - 1 || k == 0 ||
                                            k == d.n3 - 1);
          const double want = on_shell ? full.data()[e] : sentinel;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(shell.data()[e]),
                    std::bit_cast<std::uint64_t>(want))
              << d.n1 << "x" << d.n2 << "x" << d.n3 << " scale " << scale
              << " at (" << i << "," << j << "," << k << ")";
          shell_points += on_shell ? 1 : 0;
        }
        const long interior = std::max(0L, d.n1 - 2) * std::max(0L, d.n2 - 2) *
                              std::max(0L, d.n3 - 2);
        EXPECT_EQ(shell_points, d.n1 * d.n2 * d.n3 - interior);
      }
    }
  }
}

TEST(TracedKernels, ProduceSameValuesAsNative) {
  const long n = 12, kd = 9;
  Array3D<double> b = make_grid(n, n, kd, 0.5);
  Array3D<double> a_native(n, n, kd), a_traced(n, n, kd);
  jacobi3d(a_native, b, 1.0 / 6.0);
  rt::cachesim::CacheHierarchy h = rt::cachesim::CacheHierarchy::ultrasparc2();
  rt::cachesim::TracedArray3D<double> ta(a_traced, 0, h), tb(b, 1 << 22, h);
  jacobi3d(ta, tb, 1.0 / 6.0);
  EXPECT_TRUE(interiors_equal(a_native, a_traced));
}

}  // namespace
}  // namespace rt::kernels
