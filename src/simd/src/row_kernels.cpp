#include "rt/simd/row_kernels.hpp"

#include <cassert>
#include <climits>
#include <cstdint>

#include "rt/kernels/kernel_info.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define RT_SIMD_X86 1
#include <immintrin.h>
#else
#define RT_SIMD_X86 0
#endif

namespace rt::simd {
namespace {

#define RT_SIMD_RESTRICT __restrict__
#define RT_SIMD_CAT2(a, b) a##_##b
#define RT_SIMD_CAT(a, b) RT_SIMD_CAT2(a, b)

// Baseline-ISA stamp (whatever the build targets; x86-64 baseline = SSE2).
#define RT_SIMD_FN(name) RT_SIMD_CAT(name, base)
#define RT_SIMD_ATTR
#include "row_sweeps.inl"
#include "row_writes.inl"
#undef RT_SIMD_FN
#undef RT_SIMD_ATTR

#if RT_SIMD_X86
// AVX2 stamp: same loop bodies re-vectorized 4-wide.  target("avx2") does
// not enable FMA, and rt_simd builds with -ffp-contract=off besides, so no
// contraction can change the add/mul sequence — the clone stays
// bit-identical to the baseline stamp.
#define RT_SIMD_FN(name) RT_SIMD_CAT(name, avx2)
#define RT_SIMD_ATTR __attribute__((target("avx2")))
#include "row_sweeps.inl"
#include "row_writes.inl"
#undef RT_SIMD_FN
#undef RT_SIMD_ATTR

// Streaming stamps of the write-only bodies.  AVX2 writes a line as two
// 32 B non-temporal stores, back to back; AVX-512F as one 64 B store.
// target("avx512f") enables FMA, which -ffp-contract=off keeps out of the
// stencil expressions.
#define RT_SIMD_FN(name) RT_SIMD_CAT(name, stream_avx2)
#define RT_SIMD_ATTR __attribute__((target("avx2")))
#define RT_SIMD_LINE_STORE(p, line)              \
  (_mm256_stream_pd((p), _mm256_load_pd(line)), \
   _mm256_stream_pd((p) + 4, _mm256_load_pd((line) + 4)))
#include "row_writes.inl"
#undef RT_SIMD_FN
#undef RT_SIMD_ATTR
#undef RT_SIMD_LINE_STORE

// The line is read back as two 32 B halves: where the vectorizer filled
// it with two 32 B vectors (the init's int-to-double conversion) they then
// join in registers instead of stalling a 64 B load on two stores; where
// it computed one 64 B vector, the halves fold away.  (The all-ones masked
// insert is the plain insert, minus GCC's undefined-source warning.)
#define RT_SIMD_FN(name) RT_SIMD_CAT(name, stream_avx512)
#define RT_SIMD_ATTR __attribute__((target("avx512f")))
#define RT_SIMD_LINE_STORE(p, line)                                       \
  do {                                                                    \
    const __m512d lo_ = _mm512_castpd256_pd512(_mm256_load_pd(line));    \
    _mm512_stream_pd((p), _mm512_mask_insertf64x4(                        \
                              lo_, 0xFF, lo_, _mm256_load_pd((line) + 4), \
                              1));                                        \
  } while (0)
#include "row_writes.inl"
#undef RT_SIMD_FN
#undef RT_SIMD_ATTR
#undef RT_SIMD_LINE_STORE
#endif  // RT_SIMD_X86

/// True when the AVX2 stamp should run: requested *and* executable here.
bool run_avx2(SimdLevel lvl) {
#if RT_SIMD_X86
  return lvl == SimdLevel::kAvx2 && avx2_supported();
#else
  (void)lvl;
  return false;
#endif
}

/// True when a sweep at @p lvl with policy @p st runs a streaming stamp.
bool run_stream(SimdLevel lvl, Stores st) {
  return st == Stores::kStream && run_avx2(lvl);
}

/// The stamp a kStream sweep runs: the widest this host executes.
detail::StreamStamp widest_stamp() {
  return detail::stream_stamp_supported(detail::StreamStamp::kAvx512f)
             ? detail::StreamStamp::kAvx512f
             : detail::StreamStamp::kAvx2;
}

}  // namespace

void jacobi_sweep(Array3D<double>& a, const Array3D<double>& b, double c,
                  long ilo, long ihi, long jlo, long jhi, long klo, long khi,
                  SimdLevel lvl, Stores st) {
  assert(a.dims() == b.dims());
  if (run_stream(lvl, st)) {
    detail::jacobi_sweep_stream(widest_stamp(), a, b, c, ilo, ihi, jlo, jhi,
                                klo, khi);
    return;
  }
  const long s1 = a.dims().column_stride(), s2 = a.dims().plane_stride();
#if RT_SIMD_X86
  if (run_avx2(lvl)) {
    jacobi_sweep_avx2(a.data(), b.data(), s1, s2, c, ilo, ihi, jlo, jhi, klo,
                      khi);
    return;
  }
#endif
  (void)lvl;
  jacobi_sweep_base(a.data(), b.data(), s1, s2, c, ilo, ihi, jlo, jhi, klo,
                    khi);
}

void copy_sweep(Array3D<double>& dst, const Array3D<double>& src, long ilo,
                long ihi, long jlo, long jhi, long klo, long khi,
                SimdLevel lvl, Stores st) {
  assert(dst.dims() == src.dims());
  if (run_stream(lvl, st)) {
    detail::copy_sweep_stream(widest_stamp(), dst, src, ilo, ihi, jlo, jhi,
                              klo, khi);
    return;
  }
  const long s1 = dst.dims().column_stride(), s2 = dst.dims().plane_stride();
#if RT_SIMD_X86
  if (run_avx2(lvl)) {
    copy_sweep_avx2(dst.data(), src.data(), s1, s2, ilo, ihi, jlo, jhi, klo,
                    khi);
    return;
  }
#endif
  (void)lvl;
  copy_sweep_base(dst.data(), src.data(), s1, s2, ilo, ihi, jlo, jhi, klo,
                  khi);
}

void init_sweep(Array3D<double>& a, double scale, long ilo, long ihi,
                long jlo, long jhi, long klo, long khi, SimdLevel lvl,
                Stores st) {
  assert(ihi <= INT_MAX);
  if (run_stream(lvl, st)) {
    detail::init_sweep_stream(widest_stamp(), a, scale, ilo, ihi, jlo, jhi,
                              klo, khi);
    return;
  }
  const long s1 = a.dims().column_stride(), s2 = a.dims().plane_stride();
#if RT_SIMD_X86
  if (run_avx2(lvl)) {
    init_sweep_avx2(a.data(), s1, s2, scale, ilo, ihi, jlo, jhi, klo, khi);
    return;
  }
#endif
  (void)lvl;
  init_sweep_base(a.data(), s1, s2, scale, ilo, ihi, jlo, jhi, klo, khi);
}

void redblack_sweep(Array3D<double>& a, double c1, double c2, long parity,
                    long ilo, long ihi, long jlo, long jhi, long klo,
                    long khi, SimdLevel lvl) {
  const long s1 = a.dims().column_stride(), s2 = a.dims().plane_stride();
#if RT_SIMD_X86
  if (run_avx2(lvl)) {
    redblack_sweep_avx2(a.data(), s1, s2, c1, c2, parity, ilo, ihi, jlo, jhi,
                        klo, khi);
    return;
  }
#endif
  (void)lvl;
  redblack_sweep_base(a.data(), s1, s2, c1, c2, parity, ilo, ihi, jlo, jhi,
                      klo, khi);
}

void resid_sweep(Array3D<double>& r, const Array3D<double>& v,
                 const Array3D<double>& u, const rt::kernels::ResidCoeffs& a,
                 long ilo, long ihi, long jlo, long jhi, long klo, long khi,
                 SimdLevel lvl) {
  assert(r.dims() == v.dims() && r.dims() == u.dims());
  const long s1 = r.dims().column_stride(), s2 = r.dims().plane_stride();
#if RT_SIMD_X86
  if (run_avx2(lvl)) {
    resid_sweep_avx2(r.data(), v.data(), u.data(), s1, s2, a[0], a[1], a[2],
                     a[3], ilo, ihi, jlo, jhi, klo, khi);
    return;
  }
#endif
  (void)lvl;
  resid_sweep_base(r.data(), v.data(), u.data(), s1, s2, a[0], a[1], a[2],
                   a[3], ilo, ihi, jlo, jhi, klo, khi);
}

void redblack_rhs_sweep(Array3D<double>& a, const Array3D<double>& r,
                        double c1, double c2, long parity, long ilo, long ihi,
                        long jlo, long jhi, long klo, long khi,
                        SimdLevel lvl) {
  assert(a.dims() == r.dims());
  const long s1 = a.dims().column_stride(), s2 = a.dims().plane_stride();
#if RT_SIMD_X86
  if (run_avx2(lvl)) {
    redblack_rhs_sweep_avx2(a.data(), r.data(), s1, s2, c1, c2, parity, ilo,
                            ihi, jlo, jhi, klo, khi);
    return;
  }
#endif
  (void)lvl;
  redblack_rhs_sweep_base(a.data(), r.data(), s1, s2, c1, c2, parity, ilo,
                          ihi, jlo, jhi, klo, khi);
}

void psinv_sweep(Array3D<double>& u, const Array3D<double>& r,
                 const PsinvCoeffs& c, long ilo, long ihi, long jlo, long jhi,
                 long klo, long khi, SimdLevel lvl) {
  assert(u.dims() == r.dims());
  const long s1 = u.dims().column_stride(), s2 = u.dims().plane_stride();
#if RT_SIMD_X86
  if (run_avx2(lvl)) {
    psinv_sweep_avx2(u.data(), r.data(), s1, s2, c[0], c[1], c[2], c[3], ilo,
                     ihi, jlo, jhi, klo, khi);
    return;
  }
#endif
  (void)lvl;
  psinv_sweep_base(u.data(), r.data(), s1, s2, c[0], c[1], c[2], c[3], ilo,
                   ihi, jlo, jhi, klo, khi);
}

void rprj3_sweep(Array3D<double>& s, const Array3D<double>& r, long j1lo,
                 long j1hi, long j2lo, long j2hi, long j3lo, long j3hi,
                 SimdLevel lvl) {
  const long cs1 = s.dims().column_stride(), cs2 = s.dims().plane_stride();
  const long fs1 = r.dims().column_stride(), fs2 = r.dims().plane_stride();
#if RT_SIMD_X86
  if (run_avx2(lvl)) {
    rprj3_sweep_avx2(s.data(), r.data(), cs1, cs2, fs1, fs2, j1lo, j1hi,
                     j2lo, j2hi, j3lo, j3hi);
    return;
  }
#endif
  (void)lvl;
  rprj3_sweep_base(s.data(), r.data(), cs1, cs2, fs1, fs2, j1lo, j1hi, j2lo,
                   j2hi, j3lo, j3hi);
}

void interp_sweep(Array3D<double>& u, const Array3D<double>& z, long ilo,
                  long ihi, long jlo, long jhi, long klo, long khi,
                  SimdLevel lvl) {
  const long us1 = u.dims().column_stride(), us2 = u.dims().plane_stride();
  const long zs1 = z.dims().column_stride(), zs2 = z.dims().plane_stride();
#if RT_SIMD_X86
  if (run_avx2(lvl)) {
    interp_sweep_avx2(u.data(), z.data(), us1, us2, zs1, zs2, ilo, ihi, jlo,
                      jhi, klo, khi);
    return;
  }
#endif
  (void)lvl;
  interp_sweep_base(u.data(), z.data(), us1, us2, zs1, zs2, ilo, ihi, jlo,
                    jhi, klo, khi);
}

namespace detail {

bool stream_stamp_supported(StreamStamp s) {
#if RT_SIMD_X86
  return s == StreamStamp::kAvx512f ? __builtin_cpu_supports("avx512f")
                                    : avx2_supported();
#else
  (void)s;
  return false;
#endif
}

void jacobi_sweep_stream(StreamStamp s, Array3D<double>& a,
                         const Array3D<double>& b, double c, long ilo,
                         long ihi, long jlo, long jhi, long klo, long khi) {
  assert(a.dims() == b.dims());
  const long s1 = a.dims().column_stride(), s2 = a.dims().plane_stride();
#if RT_SIMD_X86
  if (stream_stamp_supported(s)) {
    if (s == StreamStamp::kAvx512f) {
      jacobi_sweep_stream_avx512(a.data(), b.data(), s1, s2, c, ilo, ihi, jlo,
                                 jhi, klo, khi);
    } else {
      jacobi_sweep_stream_avx2(a.data(), b.data(), s1, s2, c, ilo, ihi, jlo,
                               jhi, klo, khi);
    }
    _mm_sfence();
    return;
  }
#endif
  (void)s;
  jacobi_sweep_base(a.data(), b.data(), s1, s2, c, ilo, ihi, jlo, jhi, klo,
                    khi);
}

void copy_sweep_stream(StreamStamp s, Array3D<double>& dst,
                       const Array3D<double>& src, long ilo, long ihi,
                       long jlo, long jhi, long klo, long khi) {
  assert(dst.dims() == src.dims());
  const long s1 = dst.dims().column_stride(), s2 = dst.dims().plane_stride();
#if RT_SIMD_X86
  if (stream_stamp_supported(s)) {
    if (s == StreamStamp::kAvx512f) {
      copy_sweep_stream_avx512(dst.data(), src.data(), s1, s2, ilo, ihi, jlo,
                               jhi, klo, khi);
    } else {
      copy_sweep_stream_avx2(dst.data(), src.data(), s1, s2, ilo, ihi, jlo,
                             jhi, klo, khi);
    }
    _mm_sfence();
    return;
  }
#endif
  (void)s;
  copy_sweep_base(dst.data(), src.data(), s1, s2, ilo, ihi, jlo, jhi, klo,
                  khi);
}

void init_sweep_stream(StreamStamp s, Array3D<double>& a, double scale,
                       long ilo, long ihi, long jlo, long jhi, long klo,
                       long khi) {
  const long s1 = a.dims().column_stride(), s2 = a.dims().plane_stride();
#if RT_SIMD_X86
  if (stream_stamp_supported(s)) {
    if (s == StreamStamp::kAvx512f) {
      init_sweep_stream_avx512(a.data(), s1, s2, scale, ilo, ihi, jlo, jhi,
                               klo, khi);
    } else {
      init_sweep_stream_avx2(a.data(), s1, s2, scale, ilo, ihi, jlo, jhi, klo,
                             khi);
    }
    _mm_sfence();
    return;
  }
#endif
  (void)s;
  init_sweep_base(a.data(), s1, s2, scale, ilo, ihi, jlo, jhi, klo, khi);
}

}  // namespace detail

}  // namespace rt::simd
