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
// or "diamond" for the rt::temporal wavefront rows).  Extra flags,
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
#include "rt/temporal/wavefront.hpp"

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
};

void init(Array3D<double>& a) {
  for (long k = 0; k < a.n3(); ++k)
    for (long j = 0; j < a.n2(); ++j)
      for (long i = 0; i < a.n1(); ++i)
        a(i, j, k) = 0.001 * static_cast<double>(i + 2 * j + 3 * k);
}

void BM_Kernel(benchmark::State& state, Cfg cfg) {
  const rt::kernels::KernelInfo& info = rt::kernels::kernel_info(cfg.id);
  const rt::core::TilingPlan plan =
      rt::core::plan_for(cfg.tr, 2048, cfg.n, cfg.n, info.spec);
  const Dims3 d = Dims3::padded(cfg.n, cfg.n, kDim, plan.dip, plan.djp);
  const SimdLevel lvl = rt::simd::exec_level(cfg.simd, cfg.threads);
  std::unique_ptr<rt::par::ThreadPool> pool;
  if (cfg.threads > 1) pool = std::make_unique<rt::par::ThreadPool>(cfg.threads);

  std::vector<Array3D<double>> arr;
  for (int i = 0; i < info.num_arrays; ++i) {
    arr.emplace_back(d);
    init(arr.back());
  }
  const rt::simd::Exec ex{pool.get(), lvl};
  for (auto _ : state) {
    rt::bench::host_step(cfg.id, plan, ex, arr);
    benchmark::ClobberMemory();
  }
  const double flops_per_iter =
      static_cast<double>(info.flops_per_point) *
      static_cast<double>((cfg.n - 2) * (cfg.n - 2) * (kDim - 2));
  state.counters["MFlops"] = benchmark::Counter(
      flops_per_iter * static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
  state.SetLabel(rt::simd::simd_level_name(lvl));
}

struct TemporalCfg {
  long n;
  rt::core::TemporalMode mode;
  SimdMode simd;
  int threads;
};

constexpr int kTemporalSteps = 4;

/// Temporal-blocking JACOBI rows: one iteration = kTemporalSteps ping-pong
/// sweeps through the rt::temporal wavefront schedules (plan via the
/// process-wide PlanCache).  Degraded plans or thread-spawn fallbacks skip
/// the benchmark with an error instead of reporting a misleading number.
void BM_TemporalJacobi(benchmark::State& state, TemporalCfg cfg) {
  const SimdLevel lvl = rt::simd::exec_level(cfg.simd, cfg.threads);
  const auto rep = rt::core::PlanCache::instance().temporal(
      cfg.mode, rt::bench::outer_cache_elems(), cfg.n, cfg.n, kDim,
      kTemporalSteps, 0, cfg.threads);
  if (!rep.ok()) {
    state.SkipWithError(("degraded plan: " + rep.detail).c_str());
    return;
  }
  std::unique_ptr<rt::par::ThreadPool> pool;
  if (cfg.threads > 1) {
    pool = std::make_unique<rt::par::ThreadPool>(cfg.threads);
  }
  const Dims3 d = Dims3::unpadded(cfg.n, cfg.n, kDim);
  Array3D<double> a(d), b(d);
  init(b);
  for (auto _ : state) {
    rt::temporal::TemporalRun run;
    if (cfg.mode == rt::core::TemporalMode::kSkew) {
      run = rt::temporal::jacobi3d_skew_rows(pool.get(), a, b, 1.0 / 6.0,
                                             rep.plan, lvl);
    } else {
      run = rt::temporal::jacobi3d_diamond_rows(a, b, 1.0 / 6.0, rep.plan,
                                                lvl);
    }
    if (run.threads < rep.plan.threads) {
      state.SkipWithError("thread spawn degraded");
      return;
    }
    benchmark::ClobberMemory();
  }
  const double flops_per_iter =
      6.0 * static_cast<double>((cfg.n - 2) * (cfg.n - 2) * (kDim - 2)) *
      kTemporalSteps;
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
          benchmark::RegisterBenchmark(name.c_str(), BM_TemporalJacobi,
                                       TemporalCfg{n, tm, m, t})
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
