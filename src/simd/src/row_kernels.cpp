#include "rt/simd/row_kernels.hpp"

#include <cassert>

#if defined(__x86_64__) || defined(__i386__)
#define RT_SIMD_X86 1
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
#undef RT_SIMD_FN
#undef RT_SIMD_ATTR

#if RT_SIMD_X86
// AVX2 stamp: same loop bodies re-vectorized 4-wide.  target("avx2") does
// not enable FMA, so no contraction can change the add/mul sequence — the
// clone stays bit-identical to the baseline stamp.
#define RT_SIMD_FN(name) RT_SIMD_CAT(name, avx2)
#define RT_SIMD_ATTR __attribute__((target("avx2")))
#include "row_sweeps.inl"
#undef RT_SIMD_FN
#undef RT_SIMD_ATTR
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

}  // namespace

void jacobi_sweep(Array3D<double>& a, const Array3D<double>& b, double c,
                  long ilo, long ihi, long jlo, long jhi, long klo, long khi,
                  SimdLevel lvl) {
  assert(a.dims() == b.dims());
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
                SimdLevel lvl) {
  assert(dst.dims() == src.dims());
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

}  // namespace rt::simd
