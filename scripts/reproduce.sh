#!/usr/bin/env bash
# One-shot reproduction driver: configure, build, test, and regenerate
# every paper artifact.  Pass --full to use paper-resolution problem-size
# sweeps (slower).
set -euo pipefail
cd "$(dirname "$0")/.."

FULL_FLAG=""
if [[ "${1:-}" == "--full" ]]; then
  FULL_FLAG="--full"
fi

# Configured as the tier-1 command configures it: an existing build/ keeps
# its generator (naming one here would make CMake refuse a tree made with
# another).
cmake -B build -S .
cmake --build build -j
ctest --test-dir build 2>&1 | tee test_output.txt

mkdir -p results
{
  # Only the benches bench/CMakeLists.txt defines (CMake lists their paths
  # in build/bench/bench_targets.txt); a stale binary in build/bench whose
  # source is gone never runs.  bench_figures is Table 3, Figures 14-21
  # and the runner-based ablations in one run; its --json records hold the
  # integer counts of every simulated cell.
  while read -r b; do
    name=$(basename "$b")
    extra=()
    if [[ $name == bench_figures ]]; then
      extra=(--json=results/BENCH_15.json)
    fi
    echo "===== $name ====="
    "$b" ${FULL_FLAG} ${extra[@]+"${extra[@]}"}
    echo
  done < build/bench/bench_targets.txt
} 2>&1 | tee bench_output.txt
cp bench_output.txt results/bench_all.txt

# Machine-readable artifacts through the C++ emitter (rt::obs): hardware
# counters degrade to "unavailable" on hosts without perf-event access,
# the run itself always succeeds.
build/bench/bench_hw_validation ${FULL_FLAG} --json=results/BENCH_3.json

# The host kernel driver past the last level: at N=640 (K=30) one array is
# 98 MB and the JACOBI ping-pong pair 197 MB, past the ~80-110 MB working
# set at which a sweep fell out of the last level on the 2-vCPU measurement
# host (whose sysfs reports a 300 MiB L3), so JACOBI is memory-bound — the
# regime where the temporal wavefronts pay off.  Every kernel x transform x SIMD x thread row and the
# temporal rows (serial ping-pong reference, off, skew, diamond) are
# checked bit for bit before they are timed.  results/BENCH_6.json is the
# temporal comparison from the retired bench_timeskew --host at N=448.
build/bench/bench_threads_scaling --nmax=640 --steps=4 \
  --threads="$(nproc)" --json=results/BENCH_14.json

# Measurement-driven autotuning ablation (PR 7): calibrate JACOBI/RESID
# plans on this host, persist the winners in a repo-local plan store, and
# record autotuned vs model-only vs worst-candidate rows.  Re-running with
# --tune=load serves the stored winners without re-sweeping.
build/bench/bench_autotune_ablation ${FULL_FLAG} --tune=on \
  --plan-store=results/rt-tune-plans.json --json=results/BENCH_7.json

# Chaos soak (PR 9): deterministic fault storms (torn sockets, short
# writes, wedged executors, failed fsync) against the live server, with
# the resilience layer on vs off under identical fault schedules.  The
# run itself asserts the invariants (exactly-once outcomes, bit-identical
# checksums, monotone counters, post-storm health) and fails on any
# violation or if retry+self-heal does not strictly improve goodput.
build/bench/bench_chaos_soak ${FULL_FLAG} --json=results/BENCH_9.json

# Planner-backend ablation (PR 10): model vs associativity-lattice vs
# cache-oblivious backends on JACOBI/RESID/PSINV across sizes, under a
# direct-mapped and a 2-way simulated cache.  The run itself asserts the
# acceptance criteria: every backend's result is bit-identical to the
# serial reference, the lattice backend strictly beats the model on
# simulated conflict misses for at least one set-associative geometry,
# and the oblivious backend plans a recursive schedule with no cache
# parameters at all.
build/bench/bench_backend_ablation ${FULL_FLAG} --steps=1 \
  --json=results/BENCH_10.json

# Executor thread scaling on the host: every kernel x transform at 1 and 2
# threads (and the temporal wavefronts) at N = 130, where three planes fit
# a private L2, and 256 and 384, where they do not (the sweep 130 + 126 s
# also passes 382 on its way to nmax).  Untiled rows run L2-sized
# J slabs on a pool; each row is a record with its plan, threads, store
# policy and MFlops, so a later run can be diffed against this one.  Every
# record reads "stores": "normal": a 384^2 x 30 destination is 35 MB, and
# choose_stores streams only past the sysfs last level (300 MiB on the
# measurement host).
# results/BENCH_11.json is the same sweep from before streaming stores.
# RESID and PSINV rows run NAS MG's coefficients without their zero class
# (the term tables' zero-coefficient rule); results/BENCH_12.json is the
# same sweep before that rule and before the AVX-512F stamp.
build/bench/bench_threads_scaling --threads=2 --nmin=130 --nstep=126 \
  --nmax=384 --json=results/BENCH_13.json

echo "Done: test_output.txt, bench_output.txt, results/BENCH_3.json," \
     "results/BENCH_7.json, results/BENCH_9.json, results/BENCH_10.json," \
     "results/BENCH_13.json, results/BENCH_14.json, results/BENCH_15.json"
