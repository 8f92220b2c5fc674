// Time-skewed Jacobi — the skew schedule of rt::simd::for_each_step_block
// with the accessor nest as its body, inline in schedule order — must be
// bitwise equal to the plain ping-pong sweeps for any block size and step
// count.

#include <gtest/gtest.h>

#include <cmath>

#include "rt/array/array3d.hpp"
#include "rt/core/temporal.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/simd/exec.hpp"

namespace rt::kernels {
namespace {

using rt::array::Array3D;

/// @p tsteps skewed steps with K blocks of depth @p bk on the ping-pong
/// pair of jacobi3d_pingpong: b holds step 0, step t writes (t even ? a : b).
void jacobi3d_skewed(Array3D<double>& a, Array3D<double>& b, double c,
                     int tsteps, long bk) {
  rt::core::TemporalPlan tp;
  tp.mode = rt::core::TemporalMode::kSkew;
  tp.tsteps = tsteps;
  tp.bk = bk;
  rt::simd::for_each_step_block(
      {}, tp, a.n1(), a.n2(), a.n3(), [&](int t, auto... box) {
        if (t % 2 == 0) {
          jacobi3d(a, b, c, box...);
        } else {
          jacobi3d(b, a, c, box...);
        }
      });
}

Array3D<double> make_grid(long n, long kd, double seed) {
  Array3D<double> a(n, n, kd);
  for (long k = 0; k < kd; ++k)
    for (long j = 0; j < n; ++j)
      for (long i = 0; i < n; ++i)
        a(i, j, k) = std::cos(seed + 0.05 * i + 0.11 * j + 0.23 * k);
  return a;
}

struct Cfg {
  long n, kd, bk;
  int tsteps;
};

class TimeSkew : public ::testing::TestWithParam<Cfg> {};

TEST_P(TimeSkew, BitwiseEqualToPingPong) {
  const auto [n, kd, bk, tsteps] = GetParam();
  Array3D<double> b1 = make_grid(n, kd, 0.7), b2 = b1;
  Array3D<double> a1(n, n, kd), a2(n, n, kd);
  jacobi3d_pingpong(a1, b1, 1.0 / 6.0, tsteps);
  jacobi3d_skewed(a2, b2, 1.0 / 6.0, tsteps, bk);
  for (long k = 0; k < kd; ++k)
    for (long j = 0; j < n; ++j)
      for (long i = 0; i < n; ++i) {
        ASSERT_EQ(a1(i, j, k), a2(i, j, k)) << i << "," << j << "," << k;
        ASSERT_EQ(b1(i, j, k), b2(i, j, k)) << i << "," << j << "," << k;
      }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TimeSkew,
    ::testing::Values(Cfg{10, 10, 1, 1}, Cfg{10, 10, 1, 4}, Cfg{10, 10, 2, 3},
                      Cfg{10, 10, 3, 5}, Cfg{10, 10, 8, 2}, Cfg{10, 10, 100, 6},
                      Cfg{12, 9, 2, 7}, Cfg{8, 16, 4, 4}, Cfg{8, 16, 5, 3},
                      Cfg{16, 8, 3, 8}, Cfg{9, 33, 6, 5}));

/// Fully non-cubic grids (n1 != n2 != n3) and the minimum 3^3 grid: the
/// skewed K-block bounds and the plane sweeps must use the right extent
/// for each dimension independently.
struct Shape {
  long n1, n2, n3, bk;
  int tsteps;
};

class TimeSkewShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(TimeSkewShapes, BitwiseEqualToPingPong) {
  const auto [n1, n2, n3, bk, tsteps] = GetParam();
  Array3D<double> b1(n1, n2, n3), a1(n1, n2, n3), a2(n1, n2, n3);
  for (long k = 0; k < n3; ++k)
    for (long j = 0; j < n2; ++j)
      for (long i = 0; i < n1; ++i)
        b1(i, j, k) = std::cos(0.7 + 0.05 * i + 0.11 * j + 0.23 * k);
  Array3D<double> b2 = b1;
  jacobi3d_pingpong(a1, b1, 1.0 / 6.0, tsteps);
  jacobi3d_skewed(a2, b2, 1.0 / 6.0, tsteps, bk);
  for (long k = 0; k < n3; ++k)
    for (long j = 0; j < n2; ++j)
      for (long i = 0; i < n1; ++i) {
        ASSERT_EQ(a1(i, j, k), a2(i, j, k)) << i << "," << j << "," << k;
        ASSERT_EQ(b1(i, j, k), b2(i, j, k)) << i << "," << j << "," << k;
      }
}

INSTANTIATE_TEST_SUITE_P(
    NonCubicAndMinimum, TimeSkewShapes,
    ::testing::Values(Shape{3, 3, 3, 1, 1},   // single interior point
                      Shape{3, 3, 3, 2, 5},   // multi-step on minimum grid
                      Shape{3, 3, 3, 100, 3},
                      Shape{3, 9, 6, 2, 4}, Shape{9, 3, 6, 2, 4},
                      Shape{6, 9, 3, 2, 6},   // one interior plane
                      Shape{7, 12, 20, 3, 5}, Shape{20, 7, 12, 4, 3},
                      Shape{11, 5, 31, 6, 7}));

/// Exhaustive boundary-clamping sweep (regression for the bk/tsteps audit):
/// every small cube n = 3..10 against block sizes that tickle each clamp —
/// bk = 1 (minimum), bk = n-2 (exactly the interior), bk = n+7 (exceeds the
/// interior, and never divides n-2) — across tsteps = 1..bk+2 so the skew
/// both under- and over-runs the block count.
TEST(TimeSkew, ExhaustiveSmallShapesAndBlockClamps) {
  for (long n = 3; n <= 10; ++n) {
    for (long bk : {1L, n - 2, n + 7}) {
      for (int tsteps = 1; tsteps <= static_cast<int>(bk) + 2; ++tsteps) {
        Array3D<double> b1 = make_grid(n, n, 0.2 * static_cast<double>(n)),
                        b2 = b1;
        Array3D<double> a1(n, n, n), a2(n, n, n);
        jacobi3d_pingpong(a1, b1, 1.0 / 6.0, tsteps);
        jacobi3d_skewed(a2, b2, 1.0 / 6.0, tsteps, bk);
        for (long k = 0; k < n; ++k)
          for (long j = 0; j < n; ++j)
            for (long i = 0; i < n; ++i) {
              ASSERT_EQ(a1(i, j, k), a2(i, j, k))
                  << "n=" << n << " bk=" << bk << " tsteps=" << tsteps << " @ "
                  << i << "," << j << "," << k;
              ASSERT_EQ(b1(i, j, k), b2(i, j, k))
                  << "n=" << n << " bk=" << bk << " tsteps=" << tsteps << " @ "
                  << i << "," << j << "," << k;
            }
      }
    }
  }
}

/// bk <= 0 used to hang: the block loop advanced by bk and never
/// terminated.  It is now clamped to 1, so the result must still match the
/// reference (and the test must return at all).
TEST(TimeSkew, NonPositiveBlockIsClampedNotHung) {
  for (long bk : {0L, -1L, -100L}) {
    Array3D<double> b1 = make_grid(8, 8, 0.9), b2 = b1;
    Array3D<double> a1(8, 8, 8), a2(8, 8, 8);
    jacobi3d_pingpong(a1, b1, 1.0 / 6.0, 3);
    jacobi3d_skewed(a2, b2, 1.0 / 6.0, 3, bk);
    for (long k = 0; k < 8; ++k)
      for (long j = 0; j < 8; ++j)
        for (long i = 0; i < 8; ++i) {
          ASSERT_EQ(a1(i, j, k), a2(i, j, k)) << "bk=" << bk;
          ASSERT_EQ(b1(i, j, k), b2(i, j, k)) << "bk=" << bk;
        }
  }
}

/// tsteps <= 0 is a no-op: no array may change (previously the skewed loop
/// could still enter stages for tsteps = 0 block offsets).
TEST(TimeSkew, NonPositiveStepsIsNoOp) {
  for (int tsteps : {0, -1, -5}) {
    Array3D<double> b1 = make_grid(7, 7, 0.4), b2 = b1;
    Array3D<double> a1(7, 7, 7), a2 = a1;
    jacobi3d_skewed(a2, b2, 1.0 / 6.0, tsteps, 2);
    for (long k = 0; k < 7; ++k)
      for (long j = 0; j < 7; ++j)
        for (long i = 0; i < 7; ++i) {
          ASSERT_EQ(a1(i, j, k), a2(i, j, k)) << "tsteps=" << tsteps;
          ASSERT_EQ(b1(i, j, k), b2(i, j, k)) << "tsteps=" << tsteps;
        }
  }
}

TEST(TimeSkew, SingleStepEqualsOneSweep) {
  Array3D<double> b1 = make_grid(12, 12, 0.3), b2 = b1;
  Array3D<double> a1(12, 12, 12), a2(12, 12, 12);
  jacobi3d_pingpong(a1, b1, 0.25, 1);
  jacobi3d_skewed(a2, b2, 0.25, 1, 3);
  for (long k = 1; k < 11; ++k)
    for (long j = 1; j < 11; ++j)
      for (long i = 1; i < 11; ++i) ASSERT_EQ(a1(i, j, k), a2(i, j, k));
}

}  // namespace
}  // namespace rt::kernels
