// rt::simd policy layer and sweep composition: mode parsing, mode->level
// resolution (resolve and exec_level), and the property the executor rests on — sweeping arbitrary sub-boxes of
// the interior equals one full sweep.  Checked box by box against the
// accessor kernels: every streaming-store stamp this host executes, and
// the multigrid transfer sweeps (rprj3_sweep, interp_sweep) on boxes that
// start and end at odd and at even i, one-element and empty boxes, odd
// and even fine extents, padded grids and -0.0 inputs, and both forms of
// the RESID and PSINV row bodies (with and without their zero class) on
// the same boxes, -0.0 and inf inputs included.  The differential
// test of every operator under every schedule, pool width and level is
// exec_test.cpp.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/kernels/psinv.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/kernels/transfer.hpp"
#include "rt/simd/row_kernels.hpp"
#include "rt/simd/simd.hpp"

namespace rt::simd {
namespace {

using rt::array::Array3D;
using rt::array::Dims3;

Array3D<double> make_grid(long n1, long n2, long n3, double seed) {
  Array3D<double> a(n1, n2, n3);
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

/// Every level the dispatch can take.  kAvx2 and kAvx512 are included even
/// on hosts without them, where the sweeps run the widest stamp the CPU
/// executes (bit-identical anyway); SimdPolicy.StampLevel* tests that
/// narrowing rule for every feature set, this host's or not.
std::vector<SimdLevel> levels_under_test() {
  return {SimdLevel::kRows, SimdLevel::kAvx2, SimdLevel::kAvx512};
}

TEST(SimdKernels, SweepSubBoxesComposeToFullKernel) {
  // Splitting the interior into arbitrary sub-boxes and sweeping each
  // must equal one full sweep: this is the property the executor's work
  // items rest on.
  for (SimdLevel lvl : levels_under_test()) {
    Array3D<double> b = make_grid(14, 11, 9, 0.4);
    Array3D<double> a1(14, 11, 9), a2(14, 11, 9);
    rt::kernels::jacobi3d(a1, b, 1.0 / 6.0);
    jacobi_sweep(a2, b, 1.0 / 6.0, 1, 6, 1, 10, 1, 8, lvl);
    jacobi_sweep(a2, b, 1.0 / 6.0, 6, 13, 1, 4, 1, 8, lvl);
    jacobi_sweep(a2, b, 1.0 / 6.0, 6, 13, 4, 10, 1, 5, lvl);
    jacobi_sweep(a2, b, 1.0 / 6.0, 6, 13, 4, 10, 5, 8, lvl);
    jacobi_sweep(a2, b, 1.0 / 6.0, 6, 6, 1, 10, 1, 8, lvl);  // empty box
    EXPECT_TRUE(interiors_equal(a1, a2)) << "lvl=" << int(lvl);
  }
}

TEST(SimdPolicy, ParseAndNames) {
  SimdMode m;
  EXPECT_TRUE(parse_simd_mode("off", &m));
  EXPECT_EQ(m, SimdMode::kOff);
  EXPECT_TRUE(parse_simd_mode("auto", &m));
  EXPECT_EQ(m, SimdMode::kAuto);
  EXPECT_TRUE(parse_simd_mode("avx2", &m));
  EXPECT_EQ(m, SimdMode::kAvx2);
  // AVX-512F is auto's level where the CPU has it; no mode pins it.
  EXPECT_FALSE(parse_simd_mode("avx512", &m));
  EXPECT_FALSE(parse_simd_mode("sse", &m));
  EXPECT_FALSE(parse_simd_mode("", &m));
  EXPECT_STREQ(simd_mode_name(SimdMode::kAuto), "auto");
  EXPECT_STREQ(simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simd_level_name(SimdLevel::kRows), "rows");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx512), "avx512");
}

TEST(SimdPolicy, ResolveRespectsHostSupport) {
  const CpuFeatures cpu = host_cpu_features();
  EXPECT_EQ(resolve(SimdMode::kOff), SimdLevel::kScalar);
  const SimdLevel avx2 = cpu.avx2 ? SimdLevel::kAvx2 : SimdLevel::kRows;
  const SimdLevel best = cpu.avx512f ? SimdLevel::kAvx512 : avx2;
  EXPECT_EQ(resolve(SimdMode::kAuto), best);
  EXPECT_EQ(resolve(SimdMode::kAvx2), avx2);
}

TEST(SimdPolicy, ResolveFallsBackToTheWidestLevelTheCpuExecutes) {
  const CpuFeatures both{true, true}, avx2_only{true, false}, none{};
  for (const CpuFeatures cpu : {both, avx2_only, none}) {
    EXPECT_EQ(resolve(SimdMode::kOff, cpu), SimdLevel::kScalar);
  }
  EXPECT_EQ(resolve(SimdMode::kAuto, both), SimdLevel::kAvx512);
  // --simd=avx2 pins AVX2 on an AVX-512 host, so both can be compared.
  EXPECT_EQ(resolve(SimdMode::kAvx2, both), SimdLevel::kAvx2);
  // AVX-512F absent: auto runs AVX2.
  EXPECT_EQ(resolve(SimdMode::kAuto, avx2_only), SimdLevel::kAvx2);
  EXPECT_EQ(resolve(SimdMode::kAvx2, avx2_only), SimdLevel::kAvx2);
  // Neither: the baseline row kernels.
  for (const SimdMode m : {SimdMode::kAuto, SimdMode::kAvx2}) {
    EXPECT_EQ(resolve(m, none), SimdLevel::kRows) << simd_mode_name(m);
  }
}

TEST(SimdPolicy, StampLevelNarrowsToTheWidestStampTheCpuExecutes) {
  using detail::stamp_level;
  const CpuFeatures both{true, true}, avx2_only{true, false}, none{};
  // A level the CPU executes keeps its own stamp; none is widened.
  for (const SimdLevel lvl : {SimdLevel::kScalar, SimdLevel::kRows,
                              SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    EXPECT_EQ(stamp_level(lvl, both), lvl) << simd_level_name(lvl);
  }
  EXPECT_EQ(stamp_level(SimdLevel::kRows, avx2_only), SimdLevel::kRows);
  EXPECT_EQ(stamp_level(SimdLevel::kScalar, none), SimdLevel::kScalar);
  // AVX-512F absent: kAvx512 sweeps run the AVX2 stamp.
  EXPECT_EQ(stamp_level(SimdLevel::kAvx512, avx2_only), SimdLevel::kAvx2);
  EXPECT_EQ(stamp_level(SimdLevel::kAvx2, avx2_only), SimdLevel::kAvx2);
  // Neither: the baseline stamp.
  EXPECT_EQ(stamp_level(SimdLevel::kAvx2, none), SimdLevel::kRows);
  EXPECT_EQ(stamp_level(SimdLevel::kAvx512, none), SimdLevel::kRows);
  // On this host no sweep runs a stamp wider than auto's level.
  for (const SimdLevel lvl : levels_under_test()) {
    EXPECT_LE(stamp_level(lvl, host_cpu_features()),
              resolve(SimdMode::kAuto));
  }
}

TEST(SimdPolicy, ExecLevelRunsAccessorKernelsOnlySingleThreaded) {
  EXPECT_EQ(exec_level(SimdMode::kOff, 1), SimdLevel::kScalar);
  EXPECT_EQ(exec_level(SimdMode::kOff, 2), SimdLevel::kRows);
  EXPECT_EQ(exec_level(SimdMode::kOff, 8), SimdLevel::kRows);
  for (const int threads : {1, 4}) {
    EXPECT_EQ(exec_level(SimdMode::kAuto, threads), resolve(SimdMode::kAuto));
    EXPECT_EQ(exec_level(SimdMode::kAvx2, threads), resolve(SimdMode::kAvx2));
  }
}

// --- Streaming stamps, box by box ---

/// The levels with a streaming stamp that this host executes (none off
/// x86): kStream at kAvx2 runs the AVX2 stamp, at kAvx512 the AVX-512F one.
std::vector<SimdLevel> stream_levels() {
  std::vector<SimdLevel> v;
  for (const SimdLevel lvl : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (lvl <= resolve(SimdMode::kAuto)) v.push_back(lvl);
  }
  return v;
}

/// Row lengths 3 to 17, unpadded and with a leading dimension that is not
/// a multiple of 8 (rows start off a line boundary), plus a row with
/// several whole lines; each swept as two I halves, so a box also starts
/// mid-line.
std::vector<Dims3> stream_dims() {
  std::vector<Dims3> v;
  for (long n1 = 3; n1 <= 17; ++n1) {
    v.push_back(Dims3::unpadded(n1, 5, 4));
    v.push_back(Dims3::padded(n1, 5, 4, n1 % 8 == 5 ? n1 + 4 : n1 + 3, 6));
  }
  v.push_back(Dims3::padded(70, 4, 4, 75, 5));
  return v;
}

Array3D<double> make_grid(const Dims3& d, double seed) {
  Array3D<double> a(d, -3.0);
  for (long k = 0; k < d.n3; ++k) {
    for (long j = 0; j < d.n2; ++j) {
      for (long i = 0; i < d.n1; ++i) {
        a(i, j, k) = std::sin(seed + 0.1 * i + 0.2 * j + 0.3 * k);
      }
    }
  }
  return a;
}

/// Bitwise over the whole allocation, padding too (so -0.0 != +0.0).
bool storage_equal(const Array3D<double>& a, const Array3D<double>& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * a.dims().alloc_elems()) == 0;
}

TEST(SimdStream, EveryStampMatchesTheAccessorKernels) {
  if (stream_levels().empty()) GTEST_SKIP() << "no streaming stamp here";
  for (const SimdLevel lvl : stream_levels()) {
    for (const Dims3& d : stream_dims()) {
      const long mid = 1 + (d.n1 - 2) / 2;
      const Array3D<double> b = make_grid(d, 0.4);
      Array3D<double> want = make_grid(d, 0.9);
      Array3D<double> got = make_grid(d, 0.9);
      rt::kernels::jacobi3d(want, b, 1.0 / 6.0);
      jacobi_sweep(got, b, 1.0 / 6.0, 1, mid, 1, d.n2 - 1, 1, d.n3 - 1, lvl,
                   Stores::kStream);
      jacobi_sweep(got, b, 1.0 / 6.0, mid, d.n1 - 1, 1, d.n2 - 1, 1,
                   d.n3 - 1, lvl, Stores::kStream);
      EXPECT_TRUE(storage_equal(want, got))
          << "jacobi level " << int(lvl) << " n1 " << d.n1 << " p1 " << d.p1;

      want = Array3D<double>(d, -3.0);
      got = Array3D<double>(d, -3.0);
      rt::kernels::init_grid(want, 0.25);
      init_sweep(got, 0.25, 0, mid, 0, d.n2, 0, d.n3, lvl, Stores::kStream);
      init_sweep(got, 0.25, mid, d.n1, 0, d.n2, 0, d.n3, lvl,
                 Stores::kStream);
      EXPECT_TRUE(storage_equal(want, got))
          << "init level " << int(lvl) << " n1 " << d.n1 << " p1 " << d.p1;
    }
  }
}

TEST(SimdStream, StreamPolicyAtEveryLevelMatchesNormalStores) {
  // kStream runs a streaming stamp at kAvx2 and kAvx512 and falls back to
  // normal stores at every other level (or where AVX2 is missing): the
  // same bits.
  for (const SimdLevel lvl : {SimdLevel::kScalar, SimdLevel::kRows,
                              SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    for (const Dims3& d : stream_dims()) {
      const Array3D<double> b = make_grid(d, 0.7);
      Array3D<double> want = make_grid(d, 0.2);
      Array3D<double> got = make_grid(d, 0.2);
      rt::kernels::jacobi3d(want, b, 1.0 / 6.0);
      jacobi_sweep(got, b, 1.0 / 6.0, 1, d.n1 - 1, 1, d.n2 - 1, 1, d.n3 - 1,
                   lvl, Stores::kStream);
      EXPECT_TRUE(storage_equal(want, got)) << "lvl " << int(lvl);
      want = Array3D<double>(d, -3.0);
      got = Array3D<double>(d, -3.0);
      rt::kernels::init_grid(want, 2.0);
      init_sweep(got, 2.0, 0, d.n1, 0, d.n2, 0, d.n3, lvl, Stores::kStream);
      EXPECT_TRUE(storage_equal(want, got)) << "lvl " << int(lvl);
    }
  }
}

// --- Transfer sweeps, box by box ---

/// A half-open range of one axis; a box is three of them (i, j, k).
using Range = std::array<long, 2>;

/// I ranges of an interior 1 .. n - 2 (n >= 6): starting at odd and at
/// even i, ending at odd and at even i, one odd and one even element, and
/// an empty range.
std::vector<Range> i_ranges(long n) {
  return {{1, n - 1}, {1, n - 2}, {2, n - 1}, {2, n - 2},
          {1, 2},     {2, 3},     {3, 3}};
}

/// J and K ranges: the whole interior (both parities) and short ranges
/// starting at odd and at even indices.
std::vector<Range> jk_ranges(long n) { return {{1, n - 1}, {2, n - 2}, {1, 2}}; }

/// want, where the box covers it; base elsewhere (ghosts and padding too).
Array3D<double> box_of(const Array3D<double>& want,
                       const Array3D<double>& base, const Range& ri,
                       const Range& rj, const Range& rk) {
  Array3D<double> out = base;
  for (long k = rk[0]; k < rk[1]; ++k) {
    for (long j = rj[0]; j < rj[1]; ++j) {
      for (long i = ri[0]; i < ri[1]; ++i) out(i, j, k) = want(i, j, k);
    }
  }
  return out;
}

/// Sweeps every box of @p swept's interior at every level and checks each
/// against the accessor operator run over the whole interior (@p want):
/// inside the box its bits, outside it @p base's.
template <class Sweep>
void expect_boxes_match(const Array3D<double>& base,
                        const Array3D<double>& want, const Sweep& sweep,
                        const char* what) {
  const Dims3& d = base.dims();
  for (const SimdLevel lvl : levels_under_test()) {
    for (const Range& rk : jk_ranges(d.n3)) {
      for (const Range& rj : jk_ranges(d.n2)) {
        for (const Range& ri : i_ranges(d.n1)) {
          Array3D<double> got = base;
          sweep(got, ri, rj, rk, lvl);
          EXPECT_TRUE(storage_equal(box_of(want, base, ri, rj, rk), got))
              << what << " " << d.n1 << "x" << d.n2 << "x" << d.n3 << " p"
              << d.p1 << "x" << d.p2 << " lvl " << int(lvl) << " i ["
              << ri[0] << "," << ri[1] << ") j [" << rj[0] << "," << rj[1]
              << ") k [" << rk[0] << "," << rk[1] << ")";
        }
      }
    }
  }
}

struct TransferGrids {
  Dims3 fine, coarse;
};

/// Odd and even fine extents on every axis, over coarse extents from
/// MgSolver's pair (fine 2m - 2) to the largest fine extent a coarse m
/// admits (2m - 1), and one larger; unpadded, a padded fine grid and both
/// grids padded.
std::vector<TransferGrids> transfer_grids() {
  return {{Dims3::unpadded(17, 12, 11), Dims3::unpadded(9, 7, 7)},
          {Dims3::unpadded(18, 13, 10), Dims3::unpadded(10, 7, 6)},
          {Dims3::padded(17, 12, 11, 21, 15), Dims3::unpadded(9, 7, 7)},
          {Dims3::padded(18, 13, 10, 21, 15), Dims3::padded(10, 7, 6, 13, 9)}};
}

TEST(SimdTransfer, InterpSweepMatchesInterpAddOnEveryBox) {
  for (const TransferGrids& g : transfer_grids()) {
    const Array3D<double> z = make_grid(g.coarse, 0.6);
    const Array3D<double> base = make_grid(g.fine, 0.1);
    Array3D<double> want = base;
    rt::kernels::interp_add(want, z);
    expect_boxes_match(
        base, want,
        [&](Array3D<double>& u, const Range& ri, const Range& rj,
            const Range& rk, SimdLevel lvl) {
          interp_sweep(u, z, ri[0], ri[1], rj[0], rj[1], rk[0], rk[1], lvl);
        },
        "interp");
  }
}

TEST(SimdTransfer, Rprj3SweepMatchesRprj3OnEveryBox) {
  for (const TransferGrids& g : transfer_grids()) {
    const Array3D<double> r = make_grid(g.fine, 0.4);
    const Array3D<double> base = make_grid(g.coarse, 0.2);
    Array3D<double> want = base;
    rt::kernels::rprj3(want, r);
    expect_boxes_match(
        base, want,
        [&](Array3D<double>& s, const Range& ri, const Range& rj,
            const Range& rk, SimdLevel lvl) {
          rprj3_sweep(s, r, ri[0], ri[1], rj[0], rj[1], rk[0], rk[1], lvl);
        },
        "rprj3");
  }
}

TEST(SimdTransfer, NegativeZerosSumToPositiveZero) {
  // Every element's sum starts at +0.0, and 0.0 + -0.0 is +0.0: an
  // interpolation of all -0.0 onto all -0.0 leaves +0.0 at every swept
  // point, exactly as the accessor does.
  for (const TransferGrids& g : transfer_grids()) {
    const Array3D<double> z(g.coarse, -0.0);
    const Array3D<double> base(g.fine, -0.0);
    Array3D<double> want = base;
    rt::kernels::interp_add(want, z);
    ASSERT_FALSE(std::signbit(want(1, 1, 1)));
    ASSERT_FALSE(std::signbit(want(2, 2, 2)));
    expect_boxes_match(
        base, want,
        [&](Array3D<double>& u, const Range& ri, const Range& rj,
            const Range& rk, SimdLevel lvl) {
          interp_sweep(u, z, ri[0], ri[1], rj[0], rj[1], rk[0], rk[1], lvl);
        },
        "interp -0.0");
  }
}

// --- 27-point stencil sweeps, box by box ---

/// A grid valued by how many of (i, j, k) are odd (0 to 3): around a point
/// with all-even indices that is its centre, faces, edges and corners.
Array3D<double> parity_grid(const Dims3& d, const std::array<double, 4>& m) {
  Array3D<double> a(d, -3.0);
  for (long k = 0; k < d.n3; ++k) {
    for (long j = 0; j < d.n2; ++j) {
      for (long i = 0; i < d.n1; ++i) a(i, j, k) = m[(i & 1) + (j & 1) + (k & 1)];
    }
  }
  return a;
}

std::vector<Dims3> stencil_dims() {
  return {Dims3::unpadded(17, 12, 11), Dims3::padded(18, 13, 10, 21, 15)};
}

/// RESID's sweep against the accessor nest on every box, at every level.
void expect_resid_boxes_match(const Array3D<double>& v,
                              const Array3D<double>& u,
                              const rt::kernels::ResidCoeffs& a,
                              const char* what) {
  const Array3D<double> base = make_grid(u.dims(), 0.3);
  Array3D<double> want = base;
  rt::kernels::resid(want, v, u, a);
  expect_boxes_match(
      base, want,
      [&](Array3D<double>& r, const Range& ri, const Range& rj,
          const Range& rk, SimdLevel lvl) {
        resid_sweep(r, v, u, a, ri[0], ri[1], rj[0], rj[1], rk[0], rk[1],
                    lvl);
      },
      what);
}

/// PSINV's sweep against the accessor nest on every box, at every level.
void expect_psinv_boxes_match(const Array3D<double>& base,
                              const Array3D<double>& r, const PsinvCoeffs& c,
                              const char* what) {
  Array3D<double> want = base;
  rt::kernels::psinv(want, r, c);
  expect_boxes_match(
      base, want,
      [&](Array3D<double>& u, const Range& ri, const Range& rj,
          const Range& rk, SimdLevel lvl) {
        psinv_sweep(u, r, c, ri[0], ri[1], rj[0], rj[1], rk[0], rk[1], lvl);
      },
      what);
}

// Both instantiations of the RESID and PSINV row bodies (NAS MG's sets
// leave out the zero class, the dense sets keep every term) match the
// accessor nests, which pick the same form once per call.
TEST(SimdStencil, ResidAndPsinvMatchTheAccessorsForEveryCoefficientSet) {
  const rt::kernels::ResidCoeffs dense_a{-2.4, 0.07, 0.15, 0.06};
  const PsinvCoeffs dense_c{-0.4, 0.03, -0.015, 0.007};
  for (const Dims3& d : stencil_dims()) {
    const Array3D<double> u = make_grid(d, 0.5), v = make_grid(d, 0.8);
    expect_resid_boxes_match(v, u, rt::kernels::nas_mg_a(), "resid nas");
    expect_resid_boxes_match(v, u, dense_a, "resid dense");
    expect_psinv_boxes_match(u, v, rt::kernels::nas_mg_c(), "psinv nas");
    expect_psinv_boxes_match(u, v, dense_c, "psinv dense");
  }
}

// Where the rule gives other bits than the full expression (a -0.0
// running value before RESID's face term, an inf PSINV corner), every
// stamp still gives the accessor's bits.  Around each all-even point, u's
// centre and v's centre are -0.0 and u's faces -1 (RESID gives -0.0, the
// full expression +0.0), and r's corners are inf (PSINV stays finite).
TEST(SimdStencil, ZeroCoefficientRuleGivesTheAccessorBitsInEveryStamp) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const Dims3& d : stencil_dims()) {
    const Array3D<double> u = parity_grid(d, {-0.0, -1.0, 0.0, 0.0});
    const Array3D<double> v = parity_grid(d, {-0.0, 0.0, 0.0, 0.0});
    Array3D<double> r = make_grid(d, 0.3);
    rt::kernels::resid(r, v, u, rt::kernels::nas_mg_a());
    ASSERT_EQ(r(2, 2, 2), 0.0);
    ASSERT_TRUE(std::signbit(r(2, 2, 2)));
    expect_resid_boxes_match(v, u, rt::kernels::nas_mg_a(), "resid -0.0");

    const Array3D<double> rr = parity_grid(d, {1.0, 1.0, 1.0, inf});
    Array3D<double> uu = make_grid(d, 0.6);
    rt::kernels::psinv(uu, rr, rt::kernels::nas_mg_c());
    ASSERT_TRUE(std::isfinite(uu(2, 2, 2)));
    expect_psinv_boxes_match(make_grid(d, 0.6), rr, rt::kernels::nas_mg_c(),
                             "psinv inf");
  }
}

}  // namespace
}  // namespace rt::simd
