// rt::simd policy layer and sweep composition: mode parsing, mode->level
// resolution (resolve and exec_level), leading-dimension alignment, and
// the property the executor rests on — sweeping arbitrary sub-boxes of
// the interior equals one full sweep — and every streaming-store stamp
// this host executes, box by box, against the accessor kernels.  The differential test of every
// operator under every schedule, pool width and level is exec_test.cpp.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/kernel_info.hpp"
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

/// Every level the dispatch can take.  kAvx2 is included even on hosts
/// without AVX2: the dispatcher must fall back to the baseline stamp
/// rather than fault, and the fallback is bit-identical anyway.
std::vector<SimdLevel> levels_under_test() {
  return {SimdLevel::kRows, SimdLevel::kAvx2};
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
  EXPECT_FALSE(parse_simd_mode("sse", &m));
  EXPECT_FALSE(parse_simd_mode("", &m));
  EXPECT_STREQ(simd_mode_name(SimdMode::kAuto), "auto");
  EXPECT_STREQ(simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simd_level_name(SimdLevel::kRows), "rows");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx2), "avx2");
}

TEST(SimdPolicy, ResolveRespectsHostSupport) {
  EXPECT_EQ(resolve(SimdMode::kOff), SimdLevel::kScalar);
  const SimdLevel expect_best =
      avx2_supported() ? SimdLevel::kAvx2 : SimdLevel::kRows;
  EXPECT_EQ(resolve(SimdMode::kAuto), expect_best);
  EXPECT_EQ(resolve(SimdMode::kAvx2), expect_best);
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

TEST(SimdPolicy, AlignLeadingRoundsUpToVectorWidth) {
  EXPECT_EQ(align_leading(1), 8);
  EXPECT_EQ(align_leading(8), 8);
  EXPECT_EQ(align_leading(9), 16);
  EXPECT_EQ(align_leading(200), 200);
  EXPECT_EQ(align_leading(201), 208);
  EXPECT_EQ(align_leading(13, 4), 16);  // explicit vector width
  const Dims3 d = align_dims(Dims3::padded(5, 7, 9, 11, 13));
  EXPECT_EQ(d.p1, 16);   // 11 -> next multiple of 8
  EXPECT_EQ(d.p2, 13);   // untouched
  EXPECT_EQ(d.n1, 5);    // logical extents untouched
  EXPECT_TRUE(d.valid());
}

// --- Streaming stamps, box by box ---

using detail::StreamStamp;

/// The streaming stamps this host executes (none off x86).
std::vector<StreamStamp> stamps_under_test() {
  std::vector<StreamStamp> v;
  for (const StreamStamp s : {StreamStamp::kAvx2, StreamStamp::kAvx512f}) {
    if (detail::stream_stamp_supported(s)) v.push_back(s);
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

bool storage_equal(const Array3D<double>& a, const Array3D<double>& b) {
  const long n = a.dims().alloc_elems();
  for (long e = 0; e < n; ++e) {
    if (a.data()[e] != b.data()[e]) return false;  // bitwise, padding too
  }
  return true;
}

TEST(SimdStream, EveryStampMatchesTheAccessorKernels) {
  if (stamps_under_test().empty()) GTEST_SKIP() << "no streaming stamp here";
  for (const StreamStamp st : stamps_under_test()) {
    for (const Dims3& d : stream_dims()) {
      const long mid = 1 + (d.n1 - 2) / 2;
      const Array3D<double> b = make_grid(d, 0.4);
      Array3D<double> want = make_grid(d, 0.9);
      Array3D<double> got = make_grid(d, 0.9);
      rt::kernels::jacobi3d(want, b, 1.0 / 6.0);
      detail::jacobi_sweep_stream(st, got, b, 1.0 / 6.0, 1, mid, 1, d.n2 - 1,
                                  1, d.n3 - 1);
      detail::jacobi_sweep_stream(st, got, b, 1.0 / 6.0, mid, d.n1 - 1, 1,
                                  d.n2 - 1, 1, d.n3 - 1);
      EXPECT_TRUE(storage_equal(want, got))
          << "jacobi stamp " << int(st) << " n1 " << d.n1 << " p1 " << d.p1;

      want = make_grid(d, 0.9);
      got = make_grid(d, 0.9);
      rt::kernels::copy_interior(want, b);
      detail::copy_sweep_stream(st, got, b, 1, mid, 1, d.n2 - 1, 1,
                                d.n3 - 1);
      detail::copy_sweep_stream(st, got, b, mid, d.n1 - 1, 1, d.n2 - 1, 1,
                                d.n3 - 1);
      EXPECT_TRUE(storage_equal(want, got))
          << "copy stamp " << int(st) << " n1 " << d.n1 << " p1 " << d.p1;

      want = Array3D<double>(d, -3.0);
      got = Array3D<double>(d, -3.0);
      rt::kernels::init_grid(want, 0.25);
      detail::init_sweep_stream(st, got, 0.25, 0, mid, 0, d.n2, 0, d.n3);
      detail::init_sweep_stream(st, got, 0.25, mid, d.n1, 0, d.n2, 0, d.n3);
      EXPECT_TRUE(storage_equal(want, got))
          << "init stamp " << int(st) << " n1 " << d.n1 << " p1 " << d.p1;
    }
  }
}

TEST(SimdStream, StreamPolicyAtEveryLevelMatchesNormalStores) {
  // kStream runs a streaming stamp at kAvx2 and falls back to normal
  // stores at every other level (or where AVX2 is missing): the same bits.
  for (const SimdLevel lvl :
       {SimdLevel::kScalar, SimdLevel::kRows, SimdLevel::kAvx2}) {
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

}  // namespace
}  // namespace rt::simd
