// Host-machine kernel throughput (google-benchmark): the secondary,
// wall-clock signal.  On a modern associative-cache host the paper's
// conflict effects are absent (see bench_ablation_assoc), but tiling can
// still help or at least must not hurt; this microbenchmark tracks that,
// and — since PR 2 — how much the rt::simd row kernels recover over the
// scalar accessor path (the memory-starved-stencil gap).
//
// Benchmarks are registered dynamically as
//   KERNEL/<n>/<transform>/<simd>/<threads>/<temporal>
// so downstream tooling (scripts/bench_to_json.sh) can split the name on
// '/' (the sixth component is "off" for the plain per-sweep rows, "skew"
// or "diamond" for the temporal wavefront rows).  Every row times
// rt::simd::run_steps.  Extra flags,
// stripped before google-benchmark sees the rest:
//   --simd=off|auto|avx2   run only that SIMD mode (default: off AND auto)
//   --threads=T            additionally run at T threads (default: 1 only)
//   --temporal=off|skew|diamond  restrict the temporal JACOBI rows
//                          (default: register skew AND diamond)

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/bench/runner.hpp"
#include "rt/core/plan.hpp"
#include "rt/core/plan_cache.hpp"
#include "rt/core/temporal.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/simd/exec.hpp"
#include "rt/simd/simd.hpp"

namespace {

using rt::array::Array3D;
using rt::array::Dims3;
using rt::core::Transform;
using rt::kernels::KernelId;
using rt::simd::SimdLevel;
using rt::simd::SimdMode;

constexpr long kDim = 30;  // paper's fixed third dimension

struct Cfg {
  KernelId id;
  long n;
  Transform tr;
  SimdMode simd;
  int threads;
  rt::core::TemporalMode temporal = rt::core::TemporalMode::kOff;
};

/// Time steps per iteration of a temporal (skew / diamond) row.
constexpr int kTemporalSteps = 4;

void init(Array3D<double>& a) {
  for (long k = 0; k < a.n3(); ++k)
    for (long j = 0; j < a.n2(); ++j)
      for (long i = 0; i < a.n1(); ++i)
        a(i, j, k) = 0.001 * static_cast<double>(i + 2 * j + 3 * k);
}

/// One iteration = one run_steps call: one step, or kTemporalSteps
/// ping-pong sweeps under the skew or diamond schedule (planned via the
/// process-wide PlanCache).  Degraded temporal plans or a pool short of
/// threads skip the benchmark with an error instead of reporting a
/// misleading number.
void BM_Kernel(benchmark::State& state, Cfg cfg) {
  const rt::kernels::KernelInfo& info = rt::kernels::kernel_info(cfg.id);
  const rt::core::TilingPlan plan =
      rt::core::plan_for(cfg.tr, 2048, cfg.n, cfg.n, info.spec);
  const Dims3 d = Dims3::padded(cfg.n, cfg.n, kDim, plan.dip, plan.djp);
  const SimdLevel lvl = rt::simd::exec_level(cfg.simd, cfg.threads);
  int steps = 1;
  rt::core::TemporalPlan tp;
  if (cfg.temporal != rt::core::TemporalMode::kOff) {
    steps = kTemporalSteps;
    const auto rep = rt::core::PlanCache::instance().temporal(
        cfg.temporal, rt::bench::outer_cache_elems(), cfg.n, cfg.n, kDim,
        steps, 0, cfg.threads);
    if (!rep.ok()) {
      state.SkipWithError(("degraded plan: " + rep.detail).c_str());
      return;
    }
    tp = rep.plan;
  }
  std::unique_ptr<rt::par::ThreadPool> pool;
  if (cfg.threads > 1) {
    pool = std::make_unique<rt::par::ThreadPool>(cfg.threads);
    if (pool->num_threads() < cfg.threads) {
      state.SkipWithError("thread spawn degraded");
      return;
    }
  }

  std::vector<Array3D<double>> arr;
  for (int i = 0; i < info.num_arrays; ++i) {
    arr.emplace_back(d);
    init(arr.back());
  }
  const rt::simd::Exec ex{pool.get(), lvl};
  for (auto _ : state) {
    rt::simd::run_steps(ex, cfg.id, plan, arr, steps, tp);
    benchmark::ClobberMemory();
  }
  const double flops_per_iter =
      static_cast<double>(info.flops_per_point) *
      static_cast<double>((cfg.n - 2) * (cfg.n - 2) * (kDim - 2)) * steps;
  state.counters["MFlops"] = benchmark::Counter(
      flops_per_iter * static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
  state.SetLabel(rt::simd::simd_level_name(lvl));
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our flags; everything else goes to google-benchmark.
  std::vector<SimdMode> simd_modes = {SimdMode::kOff, SimdMode::kAuto};
  std::vector<int> threads = {1};
  std::vector<rt::core::TemporalMode> temporal_modes = {
      rt::core::TemporalMode::kSkew, rt::core::TemporalMode::kDiamond};
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--simd=", 0) == 0) {
      SimdMode m;
      if (!rt::simd::parse_simd_mode(a.substr(7), &m)) {
        fprintf(stderr, "bad --simd value (want off|auto|avx2): %s\n",
                a.c_str());
        return 2;
      }
      simd_modes = {m};
    } else if (a.rfind("--threads=", 0) == 0) {
      const int t = std::atoi(a.c_str() + 10);
      if (t > 1) threads = {1, t};
    } else if (a.rfind("--temporal=", 0) == 0) {
      rt::core::TemporalMode m;
      if (!rt::core::parse_temporal_mode(a.substr(11), &m)) {
        fprintf(stderr, "bad --temporal value (want off|skew|diamond): %s\n",
                a.c_str());
        return 2;
      }
      if (m == rt::core::TemporalMode::kOff) {
        temporal_modes.clear();
      } else {
        temporal_modes = {m};
      }
    } else {
      rest.push_back(argv[i]);
    }
  }

  const struct {
    KernelId id;
    const char* name;
  } kernels[] = {{KernelId::kJacobi, "JACOBI"},
                 {KernelId::kRedBlack, "REDBLACK"},
                 {KernelId::kResid, "RESID"}};
  const long sizes[] = {200, 300, 400};
  const Transform transforms[] = {Transform::kOrig, Transform::kGcdPad};

  for (const auto& kn : kernels) {
    for (long n : sizes) {
      for (Transform tr : transforms) {
        for (SimdMode m : simd_modes) {
          for (int t : threads) {
            const std::string name =
                std::string(kn.name) + "/" + std::to_string(n) + "/" +
                std::string(rt::core::transform_name(tr)) + "/" +
                rt::simd::simd_mode_name(m) + "/" + std::to_string(t) + "/off";
            benchmark::RegisterBenchmark(name.c_str(), BM_Kernel,
                                         Cfg{kn.id, n, tr, m, t})
                ->Unit(benchmark::kMillisecond);
          }
        }
      }
    }
  }

  // Temporal-blocking JACOBI rows (orig layout only: the wavefront schedules
  // trade the padding search for cross-step plane reuse).
  for (long n : sizes) {
    for (rt::core::TemporalMode tm : temporal_modes) {
      for (SimdMode m : simd_modes) {
        for (int t : threads) {
          const std::string name =
              std::string("JACOBI/") + std::to_string(n) + "/" +
              std::string(rt::core::transform_name(Transform::kOrig)) + "/" +
              rt::simd::simd_mode_name(m) + "/" + std::to_string(t) + "/" +
              rt::core::temporal_mode_name(tm);
          benchmark::RegisterBenchmark(
              name.c_str(), BM_Kernel,
              Cfg{KernelId::kJacobi, n, Transform::kOrig, m, t, tm})
              ->Unit(benchmark::kMillisecond);
        }
      }
    }
  }

  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
