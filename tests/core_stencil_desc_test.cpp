// Stencil descriptor tests: the paper stencils' term tables and the specs
// derived from them, spec derivation for any reference window, and the
// generic engine against the paper kernels and on the block driver.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <utility>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/stencil_desc.hpp"
#include "rt/core/stencil_terms.hpp"
#include "rt/kernels/generic.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/psinv.hpp"
#include "rt/kernels/redblack.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/simd/exec.hpp"

namespace rt::core {
namespace {

using rt::array::Array3D;

Array3D<double> make_grid(long n, long kd, double seed) {
  Array3D<double> a(n, n, kd);
  for (long k = 0; k < kd; ++k)
    for (long j = 0; j < n; ++j)
      for (long i = 0; i < n; ++i)
        a(i, j, k) = std::sin(seed + 0.07 * i + 0.13 * j + 0.19 * k);
  return a;
}

// --- The term tables (rt/core/stencil_terms.hpp), checked at compile
// time. ---

template <std::size_t N>
constexpr bool no_repeats(const Terms<N>& t) {
  for (std::size_t a = 0; a < N; ++a) {
    for (std::size_t b = a + 1; b < N; ++b) {
      if (t[a] == t[b]) return false;
    }
  }
  return true;
}
static_assert(no_repeats(terms::kJacobiFaces));
static_assert(no_repeats(terms::kRedBlackFaces));
static_assert(no_repeats(terms::k27Faces));
static_assert(no_repeats(terms::k27Edges));
static_assert(no_repeats(terms::k27Corners));

/// Every offset of @p t has exactly @p m nonzero components in [-1, 1].
template <std::size_t N>
constexpr bool all_of_class(const Terms<N>& t, int m) {
  for (const Offset& o : t) {
    const int d[] = {o.di, o.dj, o.dk};
    int nonzero = 0;
    for (const int x : d) {
      if (x < -1 || x > 1) return false;
      nonzero += x != 0;
    }
    if (nonzero != m) return false;
  }
  return true;
}
static_assert(all_of_class(terms::kJacobiFaces, 1));
static_assert(all_of_class(terms::kRedBlackFaces, 1));
static_assert(all_of_class(terms::k27Faces, 1));
static_assert(all_of_class(terms::k27Edges, 2));
static_assert(all_of_class(terms::k27Corners, 3));

/// The centre plus the 27-point classes hit every offset of [-1, 1]^3
/// exactly once.
constexpr bool covers_cube_once() {
  int hits[27] = {};
  const auto mark = [&hits](const auto& cls) {
    for (const Offset& o : cls) {
      ++hits[(o.dk + 1) * 9 + (o.dj + 1) * 3 + (o.di + 1)];
    }
  };
  mark(Terms<1>{terms::kCentre});
  mark(terms::k27Faces);
  mark(terms::k27Edges);
  mark(terms::k27Corners);
  for (const int h : hits) {
    if (h != 1) return false;
  }
  return true;
}
static_assert(covers_cube_once());

constexpr bool spec_is(const StencilSpec& s, long trim_i, long trim_j,
                       int atd, long halo) {
  return s.trim_i == trim_i && s.trim_j == trim_j && s.atd == atd &&
         s.halo == halo;
}
static_assert(spec_is(StencilSpec::jacobi3d(), 2, 2, 3, 1));
static_assert(spec_is(StencilSpec::redblack3d(), 2, 2, 4, 1));
static_assert(spec_is(StencilSpec::resid27(), 2, 2, 3, 1));
static_assert(spec_is(StencilSpec::psinv27(), 2, 2, 3, 1));

/// A grid of exactly computed values (no libm), so the pinned bits below
/// do not depend on the host's math library.
Array3D<double> exact_grid(long n, long seed) {
  Array3D<double> a(n, n, n);
  for (long k = 0; k < n; ++k)
    for (long j = 0; j < n; ++j)
      for (long i = 0; i < n; ++i)
        a(i, j, k) =
            static_cast<double>((i * 7 + j * 13 + k * 5 + seed) % 17) / 16.0 +
            static_cast<double>((i * 3 + j * 5 + k * 11 + seed) % 11) * 1e-3;
  return a;
}

/// FNV-1a over the bit patterns of every element.
std::uint64_t bits_hash(const Array3D<double>& a) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (long k = 0; k < a.n3(); ++k)
    for (long j = 0; j < a.n2(); ++j)
      for (long i = 0; i < a.n1(); ++i)
        h = (h ^ std::bit_cast<std::uint64_t>(a(i, j, k))) * 0x100000001b3ull;
  return h;
}

// Every path (accessor nests, row stamps) reads the same tables, so the
// bit-identity suites cannot see a table whose sum order drifted from the
// paper codes.  These hashes are the bits the paper codes' statements give
// (every sum in its source order); reordering a class so that its sums
// reassociate changes them.  All coefficients are nonzero, so every class
// counts.
TEST(StencilTerms, PaperSumOrderIsPinned) {
  const long n = 9;
  const std::array<double, 4> k4{-8.0 / 3.0, 1.0 / 7.0, 1.0 / 6.0,
                                 1.0 / 12.0};
  Array3D<double> a = exact_grid(n, 0), b = exact_grid(n, 1);
  rt::kernels::jacobi3d(a, b, terms::kJacobiC);
  EXPECT_EQ(bits_hash(a), 0x3b8a3ffdc05243e5ull);
  a = exact_grid(n, 2);
  rt::kernels::redblack_naive(a, 0.4, 0.1);
  EXPECT_EQ(bits_hash(a), 0x5c54a078a4165e85ull);
  a = exact_grid(n, 3);
  b = exact_grid(n, 4);
  rt::kernels::redblack_naive_rhs(a, b, 0.4, 0.1);
  EXPECT_EQ(bits_hash(a), 0x8ee222e76f44da7bull);
  Array3D<double> r = exact_grid(n, 5), v = exact_grid(n, 6),
                  u = exact_grid(n, 7);
  rt::kernels::resid(r, v, u, k4);
  EXPECT_EQ(bits_hash(r), 0xc268eb27d29cbd59ull);
  u = exact_grid(n, 8);
  r = exact_grid(n, 9);
  rt::kernels::psinv(u, r, k4);
  EXPECT_EQ(bits_hash(u), 0x567bdafaf769aac5ull);
}

/// Records every load as (array tag, offset from the point at (5, 5, 5));
/// stores are dropped.
struct Recorder {
  int tag;
  std::vector<std::pair<int, Offset>>* log;
  double load(long i, long j, long k) const {
    log->push_back({tag, Offset{static_cast<int>(i - 5),
                                static_cast<int>(j - 5),
                                static_cast<int>(k - 5)}});
    return 1.0;
  }
  void store(long, long, long, double) {}
};

// The accessor nests read through point_reader in the statement's order
// (the traced access sequence): the class sums first, in table order, then
// the centre values, except red-black, whose statement starts at its
// centre.  RESID and PSINV read every class with and without their zero
// class in the combine, so the nests read the same sequence for the NAS
// MG coefficients, a dense set and all zeros.
TEST(StencilTerms, AccessorsReadInStatementOrder) {
  using Log = std::vector<std::pair<int, Offset>>;
  const auto expect = [](const Log& got, std::initializer_list<int> tags,
                         const auto&... classes) {
    Log want;
    auto tag = tags.begin();
    const auto add = [&](const auto& cls) {
      for (const Offset& o : cls) want.push_back({*tag, o});
      ++tag;
    };
    (add(classes), ...);
    EXPECT_EQ(got, want);
  };
  const Terms<1> centre{terms::kCentre};
  Log log;
  Recorder a{0, &log}, b{1, &log};
  terms::jacobi(terms::point_reader(a, 5, 5, 5), 1.0);
  expect(log, {0}, terms::kJacobiFaces);
  log.clear();
  terms::redblack_rhs(terms::point_reader(a, 5, 5, 5),
                      terms::point_reader(b, 5, 5, 5), 1.0, 1.0);
  expect(log, {0, 0, 1}, centre, terms::kRedBlackFaces, centre);
  log.clear();
  // a is RESID's u and PSINV's r (the classes), b the other operand.
  const auto expect_27 = [&](const char* what) {
    SCOPED_TRACE(what);
    expect(log, {0, 0, 0, 1, 0}, terms::k27Faces, terms::k27Edges,
           terms::k27Corners, centre, centre);
    log.clear();
  };
  const std::array<double, 4> zeros{};
  for (const bool full : {true, false}) {
    terms::with_full(full, [&](auto f) {
      terms::resid<f>(terms::point_reader(a, 5, 5, 5),
                      terms::point_reader(b, 5, 5, 5), zeros);
      expect_27(f ? "resid<true>" : "resid<false>");
      terms::psinv<f>(terms::point_reader(a, 5, 5, 5),
                      terms::point_reader(b, 5, 5, 5), zeros);
      expect_27(f ? "psinv<true>" : "psinv<false>");
    });
  }
  Recorder out{2, &log};
  const std::array<double, 4> dense{0.5, -0.1, 0.02, 0.003};
  for (const auto& k : {zeros, rt::kernels::nas_mg_a(), dense}) {
    rt::kernels::resid(out, b, a, k, 5, 6, 5, 6, 5, 6);
    expect_27("resid nest");
  }
  for (const auto& k : {zeros, rt::kernels::nas_mg_c(), dense}) {
    rt::kernels::psinv(b, a, k, 5, 6, 5, 6, 5, 6);
    expect_27("psinv nest");
  }
}

/// A 3^3 grid whose centre, faces, edges and corners hold the given values.
Array3D<double> class_grid(double centre, double face, double edge,
                           double corner) {
  Array3D<double> g(3, 3, 3);
  for (long k = 0; k < 3; ++k)
    for (long j = 0; j < 3; ++j)
      for (long i = 0; i < 3; ++i) {
        const int m = (i != 1) + (j != 1) + (k != 1);
        g(i, j, k) = m == 0 ? centre : m == 1 ? face : m == 2 ? edge : corner;
      }
  return g;
}

// The zero-coefficient rule's two differences from the full expression,
// on NAS MG's coefficients.  RESID: with u's centre and v's centre -0.0,
// the running value before the face term is -0.0 - (-8/3)(-0.0) = -0.0;
// the full expression subtracts 0 t1 = -0.0 for faces summing below zero
// and gives +0.0, the rule keeps -0.0.  PSINV: an inf corner makes the
// full expression NaN (0 inf), the rule leaves the corners out.
TEST(StencilTerms, ZeroCoefficientRuleDiffersOnlyAtNegativeZeroAndNonFinite) {
  const auto a = rt::kernels::nas_mg_a();
  const auto c = rt::kernels::nas_mg_c();
  ASSERT_FALSE(terms::resid_full(a));
  ASSERT_FALSE(terms::psinv_full(c));
  ASSERT_TRUE(terms::resid_full({-8.0 / 3.0, 1e-300, 0.0, 0.0}));
  ASSERT_TRUE(terms::psinv_full({0.0, 0.0, 0.0, -1e-300}));

  Array3D<double> u = class_grid(-0.0, -1.0, 0.0, 0.0),
                  v = class_grid(-0.0, 0.0, 0.0, 0.0), r(3, 3, 3);
  const auto uw = terms::point_reader(u, 1, 1, 1);
  const auto vw = terms::point_reader(v, 1, 1, 1);
  const double full = terms::resid<true>(uw, vw, a);
  EXPECT_EQ(full, 0.0);
  EXPECT_FALSE(std::signbit(full));
  rt::kernels::resid(r, v, u, a);
  EXPECT_EQ(r(1, 1, 1), 0.0);
  EXPECT_TRUE(std::signbit(r(1, 1, 1)));

  const double inf = std::numeric_limits<double>::infinity();
  Array3D<double> rr = class_grid(1.0, 1.0, 1.0, inf),
                  uu = class_grid(1.0, 0.0, 0.0, 0.0);
  EXPECT_TRUE(std::isnan(terms::psinv<true>(terms::point_reader(rr, 1, 1, 1),
                                            terms::point_reader(uu, 1, 1, 1),
                                            c)));
  rt::kernels::psinv(uu, rr, c);
  // 1 - 3/8 + 6/32 - 12/64, every step exact.
  EXPECT_EQ(uu(1, 1, 1), 0.625);
}

TEST(StencilDesc, PaperDescriptorsAreTheTermTables) {
  const StencilDesc j = StencilDesc::jacobi6(0.25);
  ASSERT_EQ(j.arity(), terms::kJacobiFaces.size());
  for (std::size_t q = 0; q < j.arity(); ++q) {
    EXPECT_EQ(j.points[q], (StencilPoint{terms::kJacobiFaces[q], 0.25}));
  }
  const StencilDesc f = StencilDesc::full27(1, 2, 3, 4);
  EXPECT_EQ(f.points[0], (StencilPoint{0, 0, 0, 1}));
  const auto expect_class = [&f](std::size_t first, const auto& cls,
                                 double w) {
    for (std::size_t q = 0; q < cls.size(); ++q) {
      EXPECT_EQ(f.points[first + q], (StencilPoint{cls[q], w}));
    }
  };
  expect_class(1, terms::k27Faces, 2);
  expect_class(7, terms::k27Edges, 3);
  expect_class(19, terms::k27Corners, 4);
}

TEST(StencilDesc, Jacobi6DerivesPaperSpec) {
  const StencilSpec s = StencilDesc::jacobi6().derive_spec();
  EXPECT_EQ(s.trim_i, 2);
  EXPECT_EQ(s.trim_j, 2);
  EXPECT_EQ(s.atd, 3);
  EXPECT_EQ(s.halo, 1);
}

TEST(StencilDesc, Full27DerivesPaperSpec) {
  const StencilSpec s =
      StencilDesc::full27(-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0)
          .derive_spec();
  EXPECT_EQ(s.trim_i, 2);
  EXPECT_EQ(s.trim_j, 2);
  EXPECT_EQ(s.atd, 3);
  EXPECT_EQ(s.halo, 1);
}

TEST(StencilDesc, AsymmetricWindow) {
  // Fused red-black reads planes k-1..k+2: a descriptor with that window
  // must derive ATD 4 (the paper's red-black tile depth).
  StencilDesc d;
  d.points = {{0, 0, -1, 1.0}, {0, 0, 2, 1.0}, {-1, 0, 0, 1.0},
              {3, 0, 0, 1.0}, {0, -2, 0, 1.0}, {0, 1, 0, 1.0}};
  const StencilSpec s = d.derive_spec();
  EXPECT_EQ(s.atd, 4);
  EXPECT_EQ(s.trim_i, 4);  // -1..3
  EXPECT_EQ(s.trim_j, 3);  // -2..1
  EXPECT_EQ(s.halo, 3);    // the largest |offset|
}

TEST(StencilDesc, EmptyThrows) {
  EXPECT_THROW(StencilDesc{}.derive_spec(), std::invalid_argument);
}

TEST(StencilDesc, Full27Has27Points) {
  const StencilDesc d = StencilDesc::full27(1, 2, 3, 4);
  EXPECT_EQ(d.arity(), 27u);
  double sum = 0;
  for (const auto& p : d.points) sum += p.w;
  EXPECT_DOUBLE_EQ(sum, 1 + 6 * 2 + 12 * 3 + 8 * 4);
}

TEST(GenericEngine, MatchesHandWrittenJacobi) {
  const long n = 14, kd = 10;
  Array3D<double> b = make_grid(n, kd, 0.5);
  Array3D<double> a1(n, n, kd), a2(n, n, kd);
  rt::kernels::jacobi3d(a1, b, 1.0 / 6.0);
  rt::kernels::apply_stencil(a2, b, StencilDesc::jacobi6(1.0 / 6.0));
  for (long k = 1; k < kd - 1; ++k)
    for (long j = 1; j < n - 1; ++j)
      for (long i = 1; i < n - 1; ++i)
        ASSERT_NEAR(a1(i, j, k), a2(i, j, k), 1e-15);
}

TEST(GenericEngine, MatchesResidOperator) {
  // resid computes r = v - A u; the generic engine computing A u must give
  // v - r.
  const long n = 12, kd = 9;
  Array3D<double> u = make_grid(n, kd, 0.2), v = make_grid(n, kd, 0.9);
  Array3D<double> r(n, n, kd), au(n, n, kd);
  const auto a = rt::kernels::nas_mg_a();
  rt::kernels::resid(r, v, u, a);
  rt::kernels::apply_stencil(au, u,
                             StencilDesc::full27(a[0], a[1], a[2], a[3]));
  for (long k = 1; k < kd - 1; ++k)
    for (long j = 1; j < n - 1; ++j)
      for (long i = 1; i < n - 1; ++i)
        ASSERT_NEAR(r(i, j, k), v(i, j, k) - au(i, j, k), 1e-12);
}

class GenericTiled : public ::testing::TestWithParam<IterTile> {};

// The box nest on the block driver's work items, under both schedules of
// a tiled plan, equals the whole-grid run bit for bit.  A non-positive
// tile extent runs untiled (flat) or down to 1 x 1 leaves (recursive).
TEST_P(GenericTiled, TiledMatchesUntiled) {
  const IterTile t = GetParam();
  const long n = 16, kd = 9;
  Array3D<double> b = make_grid(n, kd, 0.4);
  Array3D<double> a1(n, n, kd);
  const StencilDesc d = StencilDesc::full27(0.5, -0.1, 0.02, 0.003);
  rt::kernels::apply_stencil(a1, b, d);
  for (const LoopSchedule sched :
       {LoopSchedule::kFlat, LoopSchedule::kRecursive}) {
    SCOPED_TRACE(sched == LoopSchedule::kFlat ? "flat" : "recursive");
    TilingPlan plan;
    plan.tiled = true;
    plan.tile = t;
    plan.schedule = sched;
    Array3D<double> a2(n, n, kd);
    rt::simd::for_each_block({}, plan, n, n, kd, [&](auto... box) {
      rt::kernels::apply_stencil(a2, b, d, box...);
    });
    for (long k = 1; k < kd - 1; ++k)
      for (long j = 1; j < n - 1; ++j)
        for (long i = 1; i < n - 1; ++i)
          ASSERT_EQ(a1(i, j, k), a2(i, j, k));
  }
}

INSTANTIATE_TEST_SUITE_P(Tiles, GenericTiled,
                         ::testing::Values(IterTile{1, 1}, IterTile{3, 5},
                                           IterTile{14, 2}, IterTile{4, 14},
                                           IterTile{30, 30}, IterTile{7, 7},
                                           IterTile{0, 0}, IterTile{0, 5}));

TEST(GenericEngine, BoxClipsToTheStencilReach) {
  // A radius-2 star on a box that spans the whole grid writes only the
  // points two layers in; the rest of the output keeps its old value.
  StencilDesc d;
  d.points = {{-2, 0, 0, 1.0}, {2, 0, 0, 1.0}, {0, -2, 0, 1.0},
              {0, 2, 0, 1.0},  {0, 0, -2, 1.0}, {0, 0, 2, 1.0}};
  const long n = 9, kd = 7;
  Array3D<double> b = make_grid(n, kd, 0.3);
  Array3D<double> a(n, n, kd);
  a.fill(-1.0);
  rt::kernels::apply_stencil(a, b, d, 0, n, 0, n, 0, kd);
  for (long k = 0; k < kd; ++k)
    for (long j = 0; j < n; ++j)
      for (long i = 0; i < n; ++i) {
        const bool inside = i >= 2 && i < n - 2 && j >= 2 && j < n - 2 &&
                            k >= 2 && k < kd - 2;
        if (!inside) {
          ASSERT_EQ(a(i, j, k), -1.0);
          continue;
        }
        ASSERT_EQ(a(i, j, k), b(i - 2, j, k) + b(i + 2, j, k) +
                                  b(i, j - 2, k) + b(i, j + 2, k) +
                                  b(i, j, k - 2) + b(i, j, k + 2));
      }
}

TEST(GenericEngine, PlannerWorksWithDerivedSpec) {
  // End-to-end: derive the spec, plan, and confirm the plan matches what
  // the registry's spec (the span of JACOBI's term table) yields.
  const StencilSpec derived = StencilDesc::jacobi6().derive_spec();
  const auto p1 = plan_for(Transform::kPad, 2048, 341, 341, derived);
  const auto p2 =
      plan_for(Transform::kPad, 2048, 341, 341, StencilSpec::jacobi3d());
  EXPECT_EQ(p1.tile, p2.tile);
  EXPECT_EQ(p1.dip, p2.dip);
  EXPECT_EQ(p1.djp, p2.djp);
}

}  // namespace
}  // namespace rt::core
