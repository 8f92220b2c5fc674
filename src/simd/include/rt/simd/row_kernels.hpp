#pragma once
// Raw-pointer row-sweep variants of the paper's stencil kernels.
//
// The accessor kernels (rt/kernels/*.hpp) address every point through
// load(i, j, k), recomputing i + p1*(j + p2*k) per access.  The row
// kernels instead materialise, once per (j, k) row, one pointer per
// distinct stencil row — e.g. Jacobi needs the centre row of B plus its
// four neighbour rows — and sweep the contiguous I range with a
// `#pragma omp simd` hint.  The I loop is contiguous by construction in
// the column-major Array3D, so the compiler auto-vectorizes it.  A stencil
// row body evaluates the accessor kernel's own combine expression from the
// term tables (rt/core/stencil_terms.hpp) over those row pointers, and
// vectorizing across I preserves each element's operation order, so the
// results are bit-identical to the accessor kernels for every SimdLevel
// (asserted exhaustively by tests/exec_test.cpp).
//
// Three ISA stamps of every sweep are compiled (baseline, and
// target("avx2") and target("avx512f") clones on x86); each sweep looks up
// the stamp for its SimdLevel once per call, narrowed to the widest one
// the CPU executes, so no global -mavx2 build flag is needed.  The
// write-only sweeps (jacobi, init) also take a Stores policy: with
// Stores::kStream at kAvx2 or kAvx512 they run that ISA's streaming stamp
// instead, non-temporal stores for every whole 64 B line of a row and
// normal stores for its head and tail (AVX2: both 32 B halves of a line
// back to back; AVX-512F: one 64 B store).  A streaming sweep ends with
// _mm_sfence(), so its stores are globally visible before it returns.
// Every other level and policy stores normally, with the same bits.
// jacobi and init can also add the checksum of what they write, mixed in
// registers on the way to the store (the checksum fold, rt/simd/exec.hpp).
//
// RESID and PSINV follow the term tables' zero-coefficient rule: with
// a[1] == 0 (RESID) or c[3] == 0 (PSINV), NAS MG's sets, the sweep runs a
// body whose combine leaves that class out, chosen once per call, so its
// loads and adds are never executed.  The accessor nests make the same
// choice, so the bits still match; they differ from the full expression
// only at a -0.0 running value before the dropped term or a non-finite
// dropped class sum.
//
// Aliasing contract: destination and source arrays must be distinct
// allocations (the accessor kernels are only ever used that way too);
// red-black updates in place, where the row decomposition itself
// guarantees the written row is disjoint from the neighbour rows read
// through other pointers.
//
// Each *_sweep function covers one interior sub-box [ilo,ihi) x [jlo,jhi)
// x [klo,khi): one work item of the executor (rt/simd/exec.hpp), which
// turns a plan's schedule into those boxes.

#include <cstdint>

#include "rt/array/array3d.hpp"
#include "rt/kernels/psinv.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/simd/simd.hpp"

namespace rt::simd {

using rt::array::Array3D;

/// Smoother coefficients (centre, faces, edges, corners).
using PsinvCoeffs = rt::kernels::SmootherCoeffs;

/// a(i,j,k) = c * (six face neighbours of b); a and b share dims.  With
/// @p sum, also adds the checksum_sweep of the values it writes to *sum,
/// each mixed before it is stored.
void jacobi_sweep(Array3D<double>& a, const Array3D<double>& b, double c,
                  long ilo, long ihi, long jlo, long jhi, long klo, long khi,
                  SimdLevel lvl, Stores st = Stores::kNormal,
                  std::uint64_t* sum = nullptr);

/// a(i,j,k) = rt::kernels::grid_value(scale, i, j, k) over a box of the
/// *logical* region (boundaries included).  Every index must fit in an int.
/// With @p sum, also adds the box's checksum_sweep to *sum, as jacobi_sweep.
void init_sweep(Array3D<double>& a, double scale, long ilo, long ihi,
                long jlo, long jhi, long klo, long khi, SimdLevel lvl,
                Stores st = Stores::kNormal, std::uint64_t* sum = nullptr);

/// The checksum's partial over a box of the logical region: the sum mod
/// 2^64 of its points' terms (rt::simd::checksum).  Partials over boxes
/// that cover a region once add up to the region's checksum.
std::uint64_t checksum_sweep(const Array3D<double>& a, long ilo, long ihi,
                             long jlo, long jhi, long klo, long khi,
                             SimdLevel lvl);

/// One colour of red-black SOR over the box ((i+j+k) % 2 == parity).
void redblack_sweep(Array3D<double>& a, double c1, double c2, long parity,
                    long ilo, long ihi, long jlo, long jhi, long klo,
                    long khi, SimdLevel lvl);

/// r = v - A u (27-point RESID) over the box; r, v, u share dims.  With
/// a[1] == 0 the face term is left out (the zero-coefficient rule).
void resid_sweep(Array3D<double>& r, const Array3D<double>& v,
                 const Array3D<double>& u, const rt::kernels::ResidCoeffs& a,
                 long ilo, long ihi, long jlo, long jhi, long klo, long khi,
                 SimdLevel lvl);

/// One colour of red-black SOR with a constant term (rb_update_rhs):
/// a <- c1 a + c2 (6 neighbours) + r.  a and r share dims.
void redblack_rhs_sweep(Array3D<double>& a, const Array3D<double>& r,
                        double c1, double c2, long parity, long ilo, long ihi,
                        long jlo, long jhi, long klo, long khi, SimdLevel lvl);

/// u += S r (27-point NAS MG smoother) over the box; u and r share dims.
/// With c[3] == 0 the corner term is left out (the zero-coefficient rule).
void psinv_sweep(Array3D<double>& u, const Array3D<double>& r,
                 const PsinvCoeffs& c, long ilo, long ihi, long jlo, long jhi,
                 long klo, long khi, SimdLevel lvl);

/// Full-weighting restriction over the *coarse* sub-box [j1lo,j1hi) x
/// [j2lo,j2hi) x [j3lo,j3hi): s(j1,j2,j3) from fine r around i = 2j - 1.
void rprj3_sweep(Array3D<double>& s, const Array3D<double>& r, long j1lo,
                 long j1hi, long j2lo, long j2hi, long j3lo, long j3hi,
                 SimdLevel lvl);

/// Trilinear prolongation u += P z over the *fine* sub-box.
void interp_sweep(Array3D<double>& u, const Array3D<double>& z, long ilo,
                  long ihi, long jlo, long jhi, long klo, long khi,
                  SimdLevel lvl);

namespace detail {

/// The stamp a sweep at @p lvl runs on a CPU with @p cpu: @p lvl's own, or
/// the widest level @p cpu executes when that is narrower (kScalar runs the
/// baseline stamp, as kRows does).  Every sweep looks up
/// stamp_level(lvl, host_cpu_features()).
SimdLevel stamp_level(SimdLevel lvl, CpuFeatures cpu);

}  // namespace detail

}  // namespace rt::simd
