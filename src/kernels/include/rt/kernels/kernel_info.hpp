#pragma once
// Registry describing the three paper kernels: stencil spec for the tiling
// algorithms plus flop/access counts per interior point (used for MFlops
// and for cross-checking simulated access counts), and the deterministic
// grid initialisation every host run of them starts from.

#include <cstdint>
#include <string_view>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/core/stencil_spec.hpp"

namespace rt::par {
class ThreadPool;
}

namespace rt::kernels {

/// kJacobi / kRedBlack / kResid are the paper's three evaluation kernels;
/// kPsinv is the MGRID smoother, added per Section 4.6's remark that
/// "additional improvements [are expected] from tiling the remaining
/// subroutines in the application".
enum class KernelId { kJacobi, kRedBlack, kResid, kPsinv };

struct KernelInfo {
  KernelId id;
  std::string_view name;
  rt::core::StencilSpec spec;
  /// Memory accesses per interior point per sweep of the *stencil* nest(s)
  /// (excluding any copy-back loop).
  std::uint64_t accesses_per_point;
  /// Floating-point operations per interior point per sweep, counted from
  /// the term tables (rt/core/stencil_terms.hpp) with every term
  /// evaluated: 6 / 8 / 31 / 31.  RESID and PSINV keep the paper's 31
  /// although their NAS MG coefficient sets run without the zero class
  /// (24 and 22 flops executed), so MFlops figures stay comparable with
  /// earlier results.
  std::uint64_t flops_per_point;
  /// Number of 3D arrays the kernel touches.
  int num_arrays;
};

const KernelInfo& kernel_info(KernelId id);
const std::vector<KernelId>& all_kernels();

/// The one per-point expression of the deterministic grid initialisation:
/// scale * (0.001 i + 0.002 j + 0.003 k), in that operation order.  Every
/// init writes it — init_grid, init_grid_shell and the executor's
/// rt::simd::init_grid — so they all produce the same bits.
inline double grid_value(double scale, long i, long j, long k) {
  return scale * (0.001 * static_cast<double>(i) +
                  0.002 * static_cast<double>(j) +
                  0.003 * static_cast<double>(k));
}

/// The deterministic initialisation the bench runner and the solve server
/// give every kernel array (array i gets scale 1 / (1 + i)):
/// a(i, j, k) = grid_value(scale, i, j, k) over the logical region;
/// padding is left untouched.  Served checksums are reproducible from it.
/// With a multi-thread @p pool the K planes are written in parallel (same
/// values, pages first touched by the sweeping threads).  This is the
/// serial reference; the served path writes the same values through
/// rt::simd::init_grid, which streams past the last-level cache.
void init_grid(rt::array::Array3D<double>& a, double scale,
               rt::par::ThreadPool* pool = nullptr);

/// init_grid restricted to the boundary shell: the logical points with
/// some index at 0 or at its extent - 1, written with init_grid's exact
/// bits.  The interior and the padding are left untouched, so a buffer
/// whose interior a sweep overwrites before reading costs one shell pass
/// instead of a full one.
void init_grid_shell(rt::array::Array3D<double>& a, double scale,
                     rt::par::ThreadPool* pool = nullptr);

}  // namespace rt::kernels
