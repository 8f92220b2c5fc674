// Randomized stress: many (dims, tile, kernel) combinations drawn from a
// seeded PRNG — tiled execution (the block driver's flat tiles or recursive
// leaves, and the fused red-black nest) must always match the reference
// bitwise
// and planner outputs must always verify, whatever the shape.

#include <gtest/gtest.h>

#include <cmath>

#include "rt/array/array3d.hpp"
#include "rt/core/conflict.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/temporal.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/redblack.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/simd/exec.hpp"

namespace rt {
namespace {

using rt::array::Array3D;
using rt::array::Dims3;
using rt::core::IterTile;

struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1DULL;
  }
  long in(long lo, long hi) {  // inclusive
    return lo + static_cast<long>(next() % static_cast<std::uint64_t>(
                                               hi - lo + 1));
  }
};

/// Run @p nest on the work items of a tiled plan over @p t, with a schedule
/// drawn from @p rng (flat JI tiles or recursive leaves), inline in index
/// order.
template <class Nest>
void run_blocks(IterTile t, Rng& rng, long n1, long n2, long n3,
                Nest&& nest) {
  core::TilingPlan plan;
  plan.tiled = true;
  plan.tile = t;
  plan.schedule = rng.in(0, 1) == 0 ? core::LoopSchedule::kTiled
                                    : core::LoopSchedule::kRecursive;
  simd::for_each_block({}, plan, n1, n2, n3, nest);
}

Array3D<double> rand_grid(Rng& rng, const Dims3& d) {
  Array3D<double> a(d);
  for (long k = 0; k < d.n3; ++k)
    for (long j = 0; j < d.n2; ++j)
      for (long i = 0; i < d.n1; ++i)
        a(i, j, k) = static_cast<double>(rng.next() % 1000) / 500.0 - 1.0;
  return a;
}

bool interiors_equal(const Array3D<double>& a, const Array3D<double>& b) {
  for (long k = 0; k < a.n3(); ++k)
    for (long j = 0; j < a.n2(); ++j)
      for (long i = 0; i < a.n1(); ++i)
        if (a(i, j, k) != b(i, j, k)) return false;
  return true;
}

class RandomStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomStress, JacobiTiledPaddedEquals) {
  Rng rng{GetParam() * 1234567 + 17};
  for (int round = 0; round < 6; ++round) {
    const long n1 = rng.in(4, 24), n2 = rng.in(4, 24), n3 = rng.in(4, 16);
    const Dims3 d = Dims3::padded(n1, n2, n3, n1 + rng.in(0, 9),
                                  n2 + rng.in(0, 9));
    const IterTile t{rng.in(1, 30), rng.in(1, 30)};
    Array3D<double> b = rand_grid(rng, d);
    Array3D<double> x(d), y(d);
    kernels::jacobi3d(x, b, 1.0 / 6.0);
    run_blocks(t, rng, n1, n2, n3, [&](auto... box) {
      kernels::jacobi3d(y, b, 1.0 / 6.0, box...);
    });
    ASSERT_TRUE(interiors_equal(x, y))
        << "dims " << n1 << "x" << n2 << "x" << n3 << " tile (" << t.ti
        << "," << t.tj << ")";
  }
}

TEST_P(RandomStress, RedBlackTiledEquals) {
  Rng rng{GetParam() * 7654321 + 3};
  for (int round = 0; round < 5; ++round) {
    const long n1 = rng.in(4, 20), n2 = rng.in(4, 20), n3 = rng.in(4, 14);
    const IterTile t{rng.in(1, 24), rng.in(1, 24)};
    const Dims3 d = Dims3::unpadded(n1, n2, n3);
    Array3D<double> a = rand_grid(rng, d);
    Array3D<double> b = a;
    kernels::redblack_naive(a, 0.4, 0.1);
    kernels::redblack_tiled(b, 0.4, 0.1, t);
    ASSERT_TRUE(interiors_equal(a, b))
        << "dims " << n1 << "x" << n2 << "x" << n3 << " tile (" << t.ti
        << "," << t.tj << ")";
  }
}

TEST_P(RandomStress, ResidTiledEquals) {
  Rng rng{GetParam() * 24680 + 5};
  for (int round = 0; round < 5; ++round) {
    const long n1 = rng.in(4, 20), n2 = rng.in(4, 20), n3 = rng.in(4, 12);
    const IterTile t{rng.in(1, 24), rng.in(1, 24)};
    const Dims3 d = Dims3::padded(n1, n2, n3, n1 + rng.in(0, 5),
                                  n2 + rng.in(0, 5));
    Array3D<double> v = rand_grid(rng, d), u = rand_grid(rng, d);
    Array3D<double> r1(d), r2(d);
    kernels::resid(r1, v, u, kernels::nas_mg_a());
    run_blocks(t, rng, n1, n2, n3, [&](auto... box) {
      kernels::resid(r2, v, u, kernels::nas_mg_a(), box...);
    });
    ASSERT_TRUE(interiors_equal(r1, r2));
  }
}

TEST_P(RandomStress, TimeSkewEquals) {
  Rng rng{GetParam() * 1357 + 11};
  for (int round = 0; round < 4; ++round) {
    const long n = rng.in(5, 16), kd = rng.in(5, 20);
    const long bk = rng.in(1, 12);
    const int ts = static_cast<int>(rng.in(1, 6));
    const Dims3 d = Dims3::unpadded(n, n, kd);
    Array3D<double> b1 = rand_grid(rng, d), b2 = b1;
    Array3D<double> a1(d), a2(d);
    kernels::jacobi3d_pingpong(a1, b1, 0.2, ts);
    core::TemporalPlan tp;
    tp.mode = core::TemporalMode::kSkew;
    tp.tsteps = ts;
    tp.bk = bk;
    simd::for_each_step_block({}, tp, n, n, kd, [&](int t, auto... box) {
      if (t % 2 == 0) {
        kernels::jacobi3d(a2, b2, 0.2, box...);
      } else {
        kernels::jacobi3d(b2, a2, 0.2, box...);
      }
    });
    ASSERT_TRUE(interiors_equal(a1, a2) && interiors_equal(b1, b2))
        << "n=" << n << " kd=" << kd << " bk=" << bk << " ts=" << ts;
  }
}

TEST_P(RandomStress, PlannerAlwaysConflictFree) {
  Rng rng{GetParam() * 9999 + 1};
  const auto spec = core::StencilSpec::jacobi3d();
  for (int round = 0; round < 10; ++round) {
    const long di = rng.in(16, 900), dj = rng.in(16, 900);
    for (core::Transform tr :
         {core::Transform::kEuc3d, core::Transform::kGcdPad,
          core::Transform::kPad}) {
      const auto p = core::plan_for(tr, 2048, di, dj, spec);
      if (!p.tiled) continue;  // legitimate fallback (e.g. aliasing planes)
      ASSERT_TRUE(core::is_conflict_free(2048, p.dip, p.djp,
                                         p.tile.ti + spec.trim_i,
                                         p.tile.tj + spec.trim_j, spec.atd))
          << core::transform_name(tr) << " di=" << di << " dj=" << dj;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStress,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace rt
