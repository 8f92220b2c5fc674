#pragma once
// Request execution for the solve server: the bridge between a parsed
// SolveParams and the repo's kernel/app machinery.
//
// Bit-identity contract (the acceptance bar for serving at all): a served
// JACOBI/REDBLACK/RESID result is bit-identical to the batch-binary path —
// rt::bench's runner init (rt::kernels::init_grid, array i at scale
// 1 / (1 + i)) followed by tsteps steps of jacobi + copy_interior /
// redblack / resid — checksummed over the logical region only so the
// plan's padding cannot leak into the witness.  The served steps run
// through the executor (rt/simd/exec.hpp, tiled when the plan says so) and
// move fewer bytes than that reference: JACOBI ping-pongs between its two
// arrays, one sweep per step and no copy-back, and every path initialises
// only the values some step reads (see run_solve).  MGRID/SOR go through
// MgSolver/SorSolver.  Every path runs the best row kernels the host
// supports (SimdMode::kAuto).
//
// Batching model: requests with equal BatchKey (kernel, n, k, transform)
// share one plan lookup and one padded allocation set; requests with fully
// equal SolveParams additionally share the computed result (dedup).  The
// server owns that grouping; this layer just exposes the key, the plan
// lookup, the allocation shape, and a run function whose only inputs are
// values and caller-owned buffers — nothing in here touches server state,
// which is what makes it safe to run under the abandoning deadline
// watchdog.

#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/plan_cache.hpp"
#include "rt/guard/status.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/serve/protocol.hpp"
#include "rt/simd/simd.hpp"

namespace rt::serve {

/// The batching equivalence class: requests that can share a plan lookup
/// and a padded allocation.
struct BatchKey {
  ServeKernel kernel = ServeKernel::kJacobi;
  long n = 0;
  long k = 0;
  rt::core::Transform transform = rt::core::Transform::kOrig;
  friend bool operator==(const BatchKey&, const BatchKey&) = default;
};

BatchKey batch_key_of(const SolveParams& p);

/// Grid arrays the kernel paths allocate (JACOBI 2, REDBLACK 1, RESID 3);
/// 0 for the apps, which allocate inside their solvers.
int num_arrays_for(ServeKernel k);

/// Planning cache-size heuristic for the serving host: the innermost data
/// cache's capacity in doubles (falls back to 32 KB when sysfs is silent).
/// The paper plans against a known cache; a server plans against the
/// machine it landed on.
long serve_cs_elems();

/// One plan lookup per batch through the shared cache (or plan_for_checked
/// when @p cache is null).  Kernel paths plan their own stencil; MGRID
/// plans RESID at the finest level; SOR plans the red-black sweep.
rt::core::PlanReport plan_for_batch(const BatchKey& key, long cs,
                                    rt::core::PlanCache* cache);

/// Allocation shape of one kernel-path grid under @p plan (logical n x n x
/// k padded to dip x djp).  Apps have no shared allocation; returns the
/// unpadded dims for them.
rt::array::Dims3 batch_dims(const BatchKey& key,
                            const rt::core::TilingPlan& plan);

struct SolveOutcome {
  rt::guard::Status status = rt::guard::Status::kOk;
  std::string detail;
  std::uint64_t checksum = 0;  ///< checksum_region of the result grid
  int iters = 0;               ///< sweeps / V-cycles executed
  double residual = 0;         ///< final residual (apps; 0 for kernels)
  /// Where run_solve's time went.  Kernel paths: the init, the step loop,
  /// the checksum.  JACOBI with tsteps >= 1 folds the checksum into its
  /// last step, so its in-sweep cost is in sweep_ms and checksum_ms is the
  /// pass that writes and hashes arrays[0]'s final shell plus the add;
  /// every other kernel path's checksum_ms is checksum_region.  Apps:
  /// solver construct + setup, the iterations (with the residual norm),
  /// checksum_region.
  double init_ms = 0;
  double sweep_ms = 0;
  double checksum_ms = 0;
  /// The store policy the executor chose for the kernel path's grids
  /// (rt::simd::stores_for): it applies to the full inits and to JACOBI's
  /// steps; RESID's output and REDBLACK's in-place sweeps always store
  /// normally.  Apps report kNormal.
  rt::simd::Stores stores = rt::simd::Stores::kNormal;
};

/// Execute one solve.  Kernel paths run on @p arrays — at least
/// num_arrays_for(kernel) buffers shaped batch_dims(), contents stale
/// (NaN is fine): every logical element is written before it is read, and
/// only those a step reads are initialised.
///   * tsteps <= 0, or REDBLACK: arrays[0] only, then the steps in place.
///   * JACOBI: the start state (array 1's init) goes in arrays[tsteps % 2]
///     and step s writes arrays[(tsteps - 1 - s) % 2]'s interior from the
///     other buffer, so the last step lands in arrays[0]; the other buffer
///     gets only its boundary shell, and only when tsteps >= 2 (a step
///     reads it).  After the last step arrays[0]'s shell is rewritten at
///     its own scale.  16 B per point per step instead of 32.  The last
///     step also hashes the interior it writes, and the shell pass hashes
///     the shell, so the checksum never reads arrays[0] again.
///   * RESID: the output arrays[0] gets only its shell (every step
///     overwrites its interior); v and u are initialised in full.
/// The result, arrays[0], is bit-identical to the reference for every
/// transform, pool width and tsteps parity; the other buffers are left in
/// an unspecified state.  Apps ignore @p arrays.
/// Full-grid inits go through rt::simd::init_grid (same bits as
/// rt::kernels::init_grid), streaming past the last-level cache.
/// @p pool (optional) runs the executor's work items, the init and the
/// checksum's partials (every path) in parallel — results stay
/// bit-identical to serial: every grid point is computed independently
/// with the same FP order, and the checksum's partials add mod 2^64, in
/// any order.  @p app_threads sizes the MGRID/SOR solvers'
/// internal pools.
///
/// Deadline safety: reads/writes only its arguments; checks the rt::guard
/// hang-injection point each sweep so tests can wedge a solve under a
/// deadline.  Never throws — allocation failure inside the apps comes back
/// as kAllocFailed.
SolveOutcome run_solve(const SolveParams& p, const rt::core::TilingPlan& plan,
                       std::vector<rt::array::Array3D<double>>* arrays,
                       rt::par::ThreadPool* pool, int app_threads = 1);

}  // namespace rt::serve
