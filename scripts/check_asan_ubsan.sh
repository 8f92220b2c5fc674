#!/usr/bin/env bash
# Address+UndefinedBehavior sanitizer gate for the rt::guard robustness
# layer: configure a separate build tree with -DRT_SANITIZE=address,undefined
# and run the tests that exercise the failure paths — injected bad_alloc
# unwinding through Array3D construction, watchdog worker-thread lifetimes,
# the overflow-checked size computations, and the planner's negative paths.
# ASan catches leaks and lifetime bugs on those paths; UBSan catches any
# signed overflow the checked size math is supposed to make impossible.
# Registered as a CTest test under the "sanitize" label:
#   ctest -L sanitize
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-asan}"

GEN_FLAG=()
if command -v ninja >/dev/null 2>&1; then
  GEN_FLAG=(-G Ninja)
fi

cmake -B "${BUILD_DIR}" -S . "${GEN_FLAG[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRT_SANITIZE=address,undefined \
  -DRT_BUILD_BENCH=ON -DRT_BUILD_EXAMPLES=OFF
cmake --build "${BUILD_DIR}" -j \
  --target guard_test guard_fault_injection_test array_test kernels_test \
           kernels_counts_test core_stencil_desc_test core_plan_test \
           core_backend_test cachesim_lattice_test \
           plan_cache_test exec_test simd_kernels_test mg_fastpath_test \
           multigrid_test multigrid_operators_test sor_solver_test \
           sim_exact_test runner_test \
           obs_test temporal_test \
           tune_test serve_test resil_test bench_chaos_soak

# halt_on_error turns the first finding into a hard failure.  Abandonment
# tests deliberately detach a wedged worker, but always wait for it to
# finish (guard_test sleeps past the grace; serve_test polls
# abandoned_in_flight down to zero) before the process exits, so leak
# detection stays meaningful.
export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
"${BUILD_DIR}/tests/guard_test"
"${BUILD_DIR}/tests/guard_fault_injection_test"
"${BUILD_DIR}/tests/array_test"
# Grid init: init_grid_shell's shell indexing on one-point, two-wide and
# padded grids, next to the kernels it feeds.
"${BUILD_DIR}/tests/kernels_test"
# The term tables every paper stencil is generated from: the constexpr
# span rule and read counts, the accessor nests' traced access counts, and
# the generic engine's box nest clipped to its reach on the block driver
# (non-positive tiles included).
"${BUILD_DIR}/tests/kernels_counts_test"
"${BUILD_DIR}/tests/core_stencil_desc_test"
"${BUILD_DIR}/tests/core_plan_test"
# Backend driver negative paths (overflow gate, fallback restore, unknown
# backend) plus the lattice occupancy math cross-checked against the cache
# simulator — the new planner code's failure paths under ASan+UBSan.
"${BUILD_DIR}/tests/core_backend_test"
"${BUILD_DIR}/tests/cachesim_lattice_test"
"${BUILD_DIR}/tests/plan_cache_test"
# The executor's block driver (degenerate tiles, empty interiors, recursive
# leaves), every row sweep on padded and minimum-size grids at each of the
# three ISA stamps (baseline, AVX2, AVX-512F), and run_steps with the skew
# and diamond time schedules on pools.
"${BUILD_DIR}/tests/exec_test"
# Every row sweep at each of the three ISA stamps (baseline, AVX2,
# AVX-512F) and each streaming-store stamp, box by box: the head / whole
# line / tail split on short, odd and padded rows, and the transfer
# sweeps' split (interp_sweep's leading even i, (2m-1, 2m) pairs and
# trailing odd i; rprj3_sweep's stride-2 fine reads) on boxes of either
# parity, odd and even fine extents and padded grids.
"${BUILD_DIR}/tests/simd_kernels_test"
# The two whole applications: MgSolver's held finest residual (reused by
# iterate(), dropped by setup() and the V-cycle) and SorSolver's sweeps,
# padded plans and unchecked solve(tol <= 0).
"${BUILD_DIR}/tests/mg_fastpath_test"
"${BUILD_DIR}/tests/multigrid_test"
# norm2u3 walks raw rows by stride: padded grids catch an overrun.
"${BUILD_DIR}/tests/multigrid_operators_test"
"${BUILD_DIR}/tests/sor_solver_test"
# The traced path: rt::simd's operator templates and run_steps instantiated
# with TracedArray3D, by the bench runner's simulation and by the traced
# MgSolver / SorSolver whose counts sim_exact_test pins.
"${BUILD_DIR}/tests/sim_exact_test"
"${BUILD_DIR}/tests/runner_test"
# Latency histogram: NaN/inf/negative samples and out-of-range values
# converted to bucket indices and nanoseconds.
"${BUILD_DIR}/tests/obs_test"
"${BUILD_DIR}/tests/temporal_test"
"${BUILD_DIR}/tests/tune_test"
"${BUILD_DIR}/tests/serve_test"
"${BUILD_DIR}/tests/resil_test"
# Short deterministic chaos soak: torn frames, short writes, wedged
# executors and a failed fsync, with every lifetime on the failure paths
# under ASan (respawned executors, abandoned workers, reconnecting
# clients) and the invariants checked.
"${BUILD_DIR}/bench/bench_chaos_soak"
echo "ASan+UBSan clean: guard_test + guard_fault_injection_test +" \
     "array_test + kernels_test + kernels_counts_test" \
     "+ core_stencil_desc_test + core_plan_test + core_backend_test" \
     "+ cachesim_lattice_test + plan_cache_test + exec_test" \
     "+ simd_kernels_test" \
     "+ mg_fastpath_test + multigrid_test + multigrid_operators_test" \
     "+ sor_solver_test + sim_exact_test + runner_test + obs_test" \
     "+ temporal_test + tune_test + serve_test + resil_test" \
     "+ bench_chaos_soak reported no findings."
