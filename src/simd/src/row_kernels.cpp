#include "rt/simd/row_kernels.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <climits>
#include <cstdint>
#include <cstring>

#include "rt/core/stencil_terms.hpp"
#include "rt/kernels/kernel_info.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define RT_SIMD_X86 1
#include <immintrin.h>
#else
#define RT_SIMD_X86 0
#endif

namespace rt::simd {
namespace {

namespace terms = rt::core::terms;

/// A stencil row body's neighbour reader: one pointer per distinct
/// (dj, dk) row around row @p c, computed once per row; at(i) reads offset
/// o at element i + o.di of row (o.dj, o.dk).  Unread rows are dead code.
/// The pointers are formed plane first: with GCC 12 the 27-point AVX-512F
/// loops then spill fewer of them than with c + dj * s1 + dk * s2 (which
/// ran RESID and PSINV ~4% slower at 130^3).
class Rows {
 public:
  Rows(const double* c, long s1, long s2) {
    for (int dk = -1; dk <= 1; ++dk) {
      const double* plane = c + dk * s2;
      row_[dk + 1][0] = plane - s1;
      row_[dk + 1][1] = plane;
      row_[dk + 1][2] = plane + s1;
    }
  }
  auto at(long i) const {
    return [this, i](rt::core::Offset o) {
      return row_[o.dk + 1][o.dj + 1][i + o.di];
    };
  }

 private:
  const double* row_[3][3];
};

/// The checksum's term (rt::simd::checksum): point (i, j, k) has the key
/// row_key(j, k) + i * kKeyStep, odd for every point (row_key is odd,
/// kKeyStep even), so a row steps its key by one add; a value mixes as
/// (rotl(bits, 1) ^ key) * key.
constexpr std::uint64_t kKeyStep = 0x3c6ef372fe94f82aull;  // 2 * golden ratio

/// splitmix64 of j + 2^32 k, made odd.
constexpr std::uint64_t row_key(long j, long k) {
  std::uint64_t z = static_cast<std::uint64_t>(j) +
                    (static_cast<std::uint64_t>(k) << 32) +
                    0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return (z ^ (z >> 31)) | 1;
}

/// sum += the mix of the 64 bits w under an odd key, on one word or on a
/// vector of them (by reference: a vector argument would change the ABI).
/// For a fixed key the mix is a bijection of w.  The rotate moves the sign
/// bit to bit 0, where a flip changes the product by +-key, so two sign
/// flips cancel only if their keys are equal or opposite mod 2^64.
template <class W>
constexpr void add_mix(W& sum, const W& w, const W& key) {
  sum += (((w << 1) | (w >> 63)) ^ key) * key;
}

/// One 64 B line's words.
using LineWords =
    std::uint64_t __attribute__((vector_size(kVecDoubles * sizeof(double))));

constexpr std::uint64_t bits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

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
// AVX2 and AVX-512F stamps: the same loop bodies re-vectorized 4 and 8
// wide.  target("avx512f") enables FMA (target("avx2") does not), and
// rt_simd builds with -ffp-contract=off, so no contraction can change the
// add/mul sequence: every stamp stays bit-identical to the baseline stamp.
#define RT_SIMD_FN(name) RT_SIMD_CAT(name, avx2)
#define RT_SIMD_ATTR __attribute__((target("avx2")))
#include "row_sweeps.inl"
#include "row_writes.inl"
#undef RT_SIMD_FN
#undef RT_SIMD_ATTR

#define RT_SIMD_FN(name) RT_SIMD_CAT(name, avx512)
#define RT_SIMD_ATTR __attribute__((target("avx512f")))
#include "row_sweeps.inl"
#include "row_writes.inl"
#undef RT_SIMD_FN
#undef RT_SIMD_ATTR

// Streaming stamps of the write-only bodies.  AVX2 writes a line as two
// 32 B non-temporal stores, back to back; AVX-512F as one 64 B store.
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

/// One stamp's row bodies.  A streaming stamp's write-only bodies are its
/// own; its compute bodies are those of the normal stamp of its ISA.
/// RESID and PSINV have both instantiations, indexed by the Full flag.
/// jacobi and init are indexed by their checksum flag.
struct Stamp {
  decltype(&jacobi_sweep_base<true>) jacobi[2];
  decltype(&init_sweep_base<true>) init[2];
  decltype(&checksum_sweep_base) checksum;
  decltype(&redblack_sweep_base) redblack;
  decltype(&redblack_rhs_sweep_base) redblack_rhs;
  decltype(&resid_sweep_base<true>) resid[2];
  decltype(&psinv_sweep_base<true>) psinv[2];
  decltype(&rprj3_sweep_base) rprj3;
  decltype(&interp_sweep_base) interp;
};

// isa: the compute bodies' suffix; w: the write-only bodies'.
#define RT_SIMD_STAMP(isa, w)                                          \
  Stamp{{jacobi_sweep_##w<false>, jacobi_sweep_##w<true>},            \
        {init_sweep_##w<false>, init_sweep_##w<true>},                 \
        checksum_sweep_##isa,                                          \
        redblack_sweep_##isa,                                          \
        redblack_rhs_sweep_##isa,                                      \
        {resid_sweep_##isa<false>, resid_sweep_##isa<true>},           \
        {psinv_sweep_##isa<false>, psinv_sweep_##isa<true>},           \
        rprj3_sweep_##isa,                                             \
        interp_sweep_##isa}

/// Indexed by [SimdLevel][Stores].  kScalar callers of a row sweep run the
/// baseline stamp, as kRows does; only the x86 levels have streaming
/// stamps.
constexpr Stamp kStamps[][2] = {
    {RT_SIMD_STAMP(base, base), RT_SIMD_STAMP(base, base)},
    {RT_SIMD_STAMP(base, base), RT_SIMD_STAMP(base, base)},
#if RT_SIMD_X86
    {RT_SIMD_STAMP(avx2, avx2), RT_SIMD_STAMP(avx2, stream_avx2)},
    {RT_SIMD_STAMP(avx512, avx512), RT_SIMD_STAMP(avx512, stream_avx512)},
#endif
};
#undef RT_SIMD_STAMP

/// The stamp a sweep at @p lvl with policy @p st runs on this CPU.
const Stamp& stamp(SimdLevel lvl, Stores st = Stores::kNormal) {
  static const CpuFeatures host = host_cpu_features();
  return kStamps[static_cast<int>(detail::stamp_level(lvl, host))]
                [st == Stores::kStream];
}

}  // namespace

SimdLevel detail::stamp_level(SimdLevel lvl, CpuFeatures cpu) {
  return std::min(lvl, resolve(SimdMode::kAuto, cpu));
}

void jacobi_sweep(Array3D<double>& a, const Array3D<double>& b, double c,
                  long ilo, long ihi, long jlo, long jhi, long klo, long khi,
                  SimdLevel lvl, Stores st, std::uint64_t* sum) {
  assert(a.dims() == b.dims());
  const std::uint64_t part = stamp(lvl, st).jacobi[sum != nullptr](
      a.data(), b.data(), a.dims().column_stride(), a.dims().plane_stride(), c,
      ilo, ihi, jlo, jhi, klo, khi);
  if (sum != nullptr) *sum += part;
}

void init_sweep(Array3D<double>& a, double scale, long ilo, long ihi,
                long jlo, long jhi, long klo, long khi, SimdLevel lvl,
                Stores st, std::uint64_t* sum) {
  assert(ihi <= INT_MAX);
  const std::uint64_t part = stamp(lvl, st).init[sum != nullptr](
      a.data(), a.dims().column_stride(), a.dims().plane_stride(), scale, ilo,
      ihi, jlo, jhi, klo, khi);
  if (sum != nullptr) *sum += part;
}

std::uint64_t checksum_sweep(const Array3D<double>& a, long ilo, long ihi,
                             long jlo, long jhi, long klo, long khi,
                             SimdLevel lvl) {
  return stamp(lvl).checksum(a.data(), a.dims().column_stride(),
                             a.dims().plane_stride(), ilo, ihi, jlo, jhi, klo,
                             khi);
}

void redblack_sweep(Array3D<double>& a, double c1, double c2, long parity,
                    long ilo, long ihi, long jlo, long jhi, long klo,
                    long khi, SimdLevel lvl) {
  stamp(lvl).redblack(a.data(), a.dims().column_stride(),
                      a.dims().plane_stride(), c1, c2, parity, ilo, ihi, jlo,
                      jhi, klo, khi);
}

void resid_sweep(Array3D<double>& r, const Array3D<double>& v,
                 const Array3D<double>& u, const rt::kernels::ResidCoeffs& a,
                 long ilo, long ihi, long jlo, long jhi, long klo, long khi,
                 SimdLevel lvl) {
  assert(r.dims() == v.dims() && r.dims() == u.dims());
  stamp(lvl).resid[terms::resid_full(a)](
      r.data(), v.data(), u.data(), r.dims().column_stride(),
      r.dims().plane_stride(), a, ilo, ihi, jlo, jhi, klo, khi);
}

void redblack_rhs_sweep(Array3D<double>& a, const Array3D<double>& r,
                        double c1, double c2, long parity, long ilo, long ihi,
                        long jlo, long jhi, long klo, long khi,
                        SimdLevel lvl) {
  assert(a.dims() == r.dims());
  stamp(lvl).redblack_rhs(a.data(), r.data(), a.dims().column_stride(),
                          a.dims().plane_stride(), c1, c2, parity, ilo, ihi,
                          jlo, jhi, klo, khi);
}

void psinv_sweep(Array3D<double>& u, const Array3D<double>& r,
                 const PsinvCoeffs& c, long ilo, long ihi, long jlo, long jhi,
                 long klo, long khi, SimdLevel lvl) {
  assert(u.dims() == r.dims());
  stamp(lvl).psinv[terms::psinv_full(c)](
      u.data(), r.data(), u.dims().column_stride(), u.dims().plane_stride(),
      c, ilo, ihi, jlo, jhi, klo, khi);
}

void rprj3_sweep(Array3D<double>& s, const Array3D<double>& r, long j1lo,
                 long j1hi, long j2lo, long j2hi, long j3lo, long j3hi,
                 SimdLevel lvl) {
  stamp(lvl).rprj3(s.data(), r.data(), s.dims().column_stride(),
                   s.dims().plane_stride(), r.dims().column_stride(),
                   r.dims().plane_stride(), j1lo, j1hi, j2lo, j2hi, j3lo,
                   j3hi);
}

void interp_sweep(Array3D<double>& u, const Array3D<double>& z, long ilo,
                  long ihi, long jlo, long jhi, long klo, long khi,
                  SimdLevel lvl) {
  stamp(lvl).interp(u.data(), z.data(), u.dims().column_stride(),
                    u.dims().plane_stride(), z.dims().column_stride(),
                    z.dims().plane_stride(), ilo, ihi, jlo, jhi, klo, khi);
}

}  // namespace rt::simd
