#!/usr/bin/env bash
# Export host-perf kernel throughput as machine-readable JSON: runs
# bench_kernels_hostperf (google-benchmark) and reshapes its JSON into a
# flat record list {kernel, n, transform, simd, simd_level, threads,
# mflops} — the schema tracked in results/BENCH_2.json.
#
# Legacy path: new benches emit this schema (and more) directly from C++
# via --json=FILE (rt::obs::MetricsWriter; see bench_hw_validation and
# results/BENCH_3.json).  This script stays as a thin wrapper for the
# google-benchmark binaries until they migrate.
#
# App-level records (bench_mgrid / bench_sor_app --json=FILE, tracked in
# results/BENCH_5.json) extend the schema with nested blocks this wrapper
# does not produce:
#   plan_cache: {hits, misses, hit_rate,
#                pinned_hits, evictions}           (rt::core::PlanCache)
#   phases: {<op>: {count, total_s, mean_s}, ...}  (per-operator timings)
#   tune: {mode, key, status, origin, ...}         (rt::tune calibration,
#                                                   results/BENCH_7.json)
# All are golden-pinned in tests/golden/metrics_schema.json.
#
# The benchmark names are
# "KERNEL/<n>/<transform>/<simd-mode>/<threads>/<temporal>/<tune>"; `simd`
# is the requested mode (off/auto/avx2) split from the name,
# `simd_level` is the level that actually ran (the benchmark's label, e.g.
# auto -> avx512 on an AVX-512F host, avx2 on an AVX2-only one, scalar
# under off), `temporal` is the wavefront schedule
# (off/skew/diamond; pre-PR6 five-component names default to "off"), and
# `tune` is the autotuning mode (off/load/on; pre-PR7 names default to
# "off").
#
# Env overrides:
#   BUILD_DIR  build tree containing bench/bench_kernels_hostperf (build)
#   OUT        output path (results/BENCH_2.json)
#   FILTER     --benchmark_filter regex (default "/200/": the N=200 rows
#              the PR 2 acceptance compares at)
# Extra arguments are forwarded to the benchmark binary (e.g. --threads=4).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${OUT:-results/BENCH_2.json}"
FILTER="${FILTER:-/200/}"
BIN="${BUILD_DIR}/bench/bench_kernels_hostperf"

if [ ! -x "${BIN}" ]; then
  echo "error: ${BIN} not found; build the bench_kernels_hostperf target" >&2
  exit 1
fi
if ! command -v jq >/dev/null 2>&1; then
  echo "error: jq is required" >&2
  exit 1
fi

mkdir -p "$(dirname "${OUT}")"
raw="$(mktemp)"
trap 'rm -f "${raw}"' EXIT

"${BIN}" "$@" --benchmark_filter="${FILTER}" --benchmark_format=json \
  > "${raw}"

# Defaults: benchmarks registered without a threads field in the name
# ($p[4]), without the PR-6 temporal component ($p[5]), or without a
# SetLabel() call (.label) must not crash the reshape — assume serial
# scalar non-temporal, the registration defaults, so pre-PR6 row shapes
# still parse.
jq '[.benchmarks[]
     | (.name | split("/")) as $p
     | {kernel: $p[0],
        n: ($p[1] | tonumber),
        transform: ($p[2] // "Orig"),
        simd: ($p[3] // "off"),
        simd_level: (.label // "scalar"),
        threads: (($p[4] // "1") | tonumber),
        temporal: ($p[5] // "off"),
        tune: ($p[6] // "off"),
        mflops: (.MFlops * 1000 | round / 1000)}]' "${raw}" > "${OUT}"

echo "wrote $(jq length "${OUT}") records to ${OUT}"
