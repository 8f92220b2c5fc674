#!/usr/bin/env bash
# End-to-end benchmark: builds bench/e2e into build-e2e/ (Release, tier-1
# build/ untouched), then runs each workload in its own process.
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                    [--out FILE] [--self-test] [--smoke]
#
#   --workload   serve-small | serve-large | mgrid-solve | jacobi-large
#                (default: all four, one process each)
#   --seed       generates the inputs (default 1)
#   --seconds    the run length; it is fixed by run_seconds in
#                BENCHMARK.json, and any other value is refused
#   --trace      1: traced run, per-layer metrics, spans written to
#                build-e2e/trace-WORKLOAD-SEED.json; 0: untraced (default)
#   --out        append one line per run to FILE, for rt_e2e_compare
#   --self-test  corrupt one reference checksum; the run must exit 1
#   --smoke      about 1 s per workload: each must pass, and each must fail
#                under --self-test
# Every option also takes the --key=value form.
#
# stdout carries `workload metric value unit` lines and, last, each run's
# one-line JSON result; build output goes to stderr.  Exit status is
# non-zero if any run was incorrect or failed.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$ROOT"
BUILD=build-e2e
ALL=(serve-small serve-large mgrid-solve jacobi-large)
run_seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)

workloads=() seed=1 seconds=$run_seconds out="" trace=0 self_test=0 smoke=0
while [[ $# -gt 0 ]]; do
  arg=$1
  shift
  if [[ $arg == --*=* ]]; then
    key=${arg%%=*} val=${arg#*=}
  elif [[ $arg == --self-test || $arg == --smoke ]]; then
    key=$arg val=""
  elif [[ $# -gt 0 ]]; then
    key=$arg val=$1
    shift
  else
    echo "run.sh: missing value for $arg" >&2
    exit 2
  fi
  case $key in
    --workload) workloads+=("$val") ;;
    --seed) seed=$val ;;
    --seconds) seconds=$val ;;
    --out) out=$val ;;
    --trace) trace=$val ;;
    --self-test) self_test=1 ;;
    --smoke) smoke=1 ;;
    *) echo "run.sh: unknown option $key" >&2; exit 2 ;;
  esac
done
[[ ${#workloads[@]} -gt 0 ]] || workloads=("${ALL[@]}")
if [[ $seconds != "$run_seconds" ]]; then
  echo "run.sh: --seconds $seconds: runs last run_seconds ($run_seconds) of BENCHMARK.json" >&2
  exit 2
fi
if [[ $trace != 0 && $trace != 1 ]]; then
  echo "run.sh: --trace takes 0 or 1, not '$trace'" >&2
  exit 2
fi
[[ $smoke == 1 ]] && seconds=1

# Compiler scratch files stay inside the checkout too.
mkdir -p "$BUILD/tmp"
export TMPDIR="$ROOT/$BUILD/tmp"
if [[ ! -f $BUILD/CMakeCache.txt ]]; then
  cmake -S bench/e2e -B "$BUILD" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$BUILD" -j "$(nproc)" >&2

# run_one WORKLOAD [extra rt_e2e args...]: one process at --seed, its
# stdout passed through; with --out, its last line is appended there
# (null when the run printed no result).
run_one() {
  local w=$1
  shift
  local log
  log=$(mktemp "$BUILD/tmp/run.XXXXXX")
  local rc=0
  "$BUILD/rt_e2e" --workload="$w" --seed="$seed" --seconds="$seconds" "$@" \
    | tee "$log" || rc=${PIPESTATUS[0]}
  local last
  last=$(tail -n 1 "$log")
  rm -f "$log"
  [[ $last == "{"* ]] || last=null
  if [[ -n $out && $self_test == 0 && " $* " != *" --self-test "* ]]; then
    echo "{\"workload\": \"$w\", \"seed\": $seed, \"seconds\": $seconds, \"trace\": $([[ $trace == 1 ]] && echo true || echo false), \"exit\": $rc, \"result\": $last}" >> "$out"
  fi
  return "$rc"
}

status=0
for w in "${workloads[@]}"; do
  if [[ $smoke == 1 ]]; then
    run_one "$w" || { echo "run.sh: smoke run of $w failed" >&2; status=1; }
    rc=0
    run_one "$w" --self-test > /dev/null 2>&1 || rc=$?
    if [[ $rc == 1 ]]; then
      echo "$w self-test: corrupted reference detected (exit 1)"
    else
      echo "run.sh: --self-test of $w exited $rc, not 1: its corrupted reference went unnoticed" >&2
      status=1
    fi
    continue
  fi
  extra=()
  [[ $trace == 1 ]] && extra+=("--trace=$BUILD/trace-$w-$seed.json")
  [[ $self_test == 1 ]] && extra+=(--self-test)
  run_one "$w" ${extra[@]+"${extra[@]}"} || status=1
done
exit "$status"
