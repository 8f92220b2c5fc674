#pragma once
// The simulated-cell table of the figure driver (bench/bench_figures.cpp):
// run_kernel / run_kernel_with_plan that simulate each distinct cell once
// per process, however many figures, tables and ablations ask for it.
//
// A cell is keyed by the resolved plan, not by the transform that named
// it: plan first (microseconds), then look the cell up, so an ablation's
// hand-built plan shares the figure cell of any transform that plans the
// same thing.  The perf model is not part of the key — a hit re-prices the
// cell's counts under the caller's clock (price_sim), bit for bit what a
// fresh run under that clock computes.

#include <cstddef>
#include <map>
#include <tuple>
#include <vector>

#include "rt/bench/runner.hpp"
#include "rt/obs/metrics_writer.hpp"

namespace rt::bench {

/// Everything a trace-driven run reads: kernel, the whole plan, the array
/// extents, the steps and every field of both cache levels.
struct CellKey {
  rt::kernels::KernelId kernel = rt::kernels::KernelId::kJacobi;
  rt::core::TilingPlan plan;
  long n = 0;
  long k_dim = 0;
  int time_steps = 0;
  rt::cachesim::CacheConfig l1;
  rt::cachesim::CacheConfig l2;

  /// The bindings name every field: a field added to TilingPlan, IterTile
  /// or CacheConfig stops this compiling until the key lists it too.
  auto tie() const {
    const auto& [transform, tiled, tile, dip, djp, backend, schedule] = plan;
    const auto& [ti, tj] = tile;
    const auto& [l1_bytes, l1_line, l1_assoc, l1_alloc, l1_back] = l1;
    const auto& [l2_bytes, l2_line, l2_assoc, l2_alloc, l2_back] = l2;
    return std::tie(kernel, transform, tiled, ti, tj, dip, djp, backend,
                    schedule, n, k_dim, time_steps, l1_bytes, l1_line,
                    l1_assoc, l1_alloc, l1_back, l2_bytes, l2_line, l2_assoc,
                    l2_alloc, l2_back);
  }
  bool operator<(const CellKey& o) const { return tie() < o.tie(); }
};

/// The key of run_kernel_with_plan(id, plan, n, opts)'s simulation.
CellKey cell_key(rt::kernels::KernelId id, const rt::core::TilingPlan& plan,
                 long n, const RunOptions& opts);

class CellTable {
 public:
  /// run_kernel through the table: plan, then the cell of the plan.
  RunResult run(rt::kernels::KernelId id, rt::core::Transform tr, long n,
                const RunOptions& opts);

  /// run_kernel_with_plan through the table.  With opts.simulate the
  /// simulation comes from the cell (simulated on first request, host
  /// timing off) priced at opts.perf; opts.time_host still times the host
  /// on every call, in a run of its own.  Without opts.simulate this is
  /// run_kernel_with_plan itself and no cell is requested.
  RunResult run_with_plan(rt::kernels::KernelId id,
                          const rt::core::TilingPlan& plan, long n,
                          const RunOptions& opts);

  std::size_t requested() const { return requested_; }
  std::size_t simulated() const { return cells_.size(); }

  /// One record per simulated cell, in the order they were simulated:
  /// kernel, n, k_dim, steps, the plan (transform, backend, schedule,
  /// tile, dip, djp), the run status, flops, and per level ("l1", "l2")
  /// its cache config and integer accesses, misses and writebacks.
  void append_json(rt::obs::MetricsWriter& w) const;

 private:
  struct Cell {
    CellKey key;
    RunResult res;
  };
  std::vector<Cell> cells_;
  std::map<CellKey, std::size_t> index_;
  std::size_t requested_ = 0;
};

}  // namespace rt::bench
