#include "rt/bench/cells.hpp"

#include <string>

namespace rt::bench {

CellKey cell_key(rt::kernels::KernelId id, const rt::core::TilingPlan& plan,
                 long n, const RunOptions& opts) {
  return CellKey{id, plan, n, opts.k_dim, opts.time_steps, opts.l1, opts.l2};
}

RunResult CellTable::run(rt::kernels::KernelId id, rt::core::Transform tr,
                         long n, const RunOptions& opts) {
  return run_planned(plan_kernel(id, tr, n, opts),
                     [&](const rt::core::TilingPlan& plan) {
                       return run_with_plan(id, plan, n, opts);
                     });
}

RunResult CellTable::run_with_plan(rt::kernels::KernelId id,
                                   const rt::core::TilingPlan& plan, long n,
                                   const RunOptions& opts) {
  if (!opts.simulate) return run_kernel_with_plan(id, plan, n, opts);
  ++requested_;
  const CellKey key = cell_key(id, plan, n, opts);
  auto it = index_.find(key);
  if (it == index_.end()) {
    RunOptions sim = opts;
    sim.time_host = false;
    cells_.push_back({key, run_kernel_with_plan(id, plan, n, sim)});
    it = index_.emplace(key, cells_.size() - 1).first;
  }
  const RunResult& cell = cells_[it->second].res;
  RunResult res = cell;
  if (opts.time_host) {
    RunOptions host = opts;
    host.simulate = false;
    res = run_kernel_with_plan(id, plan, n, host);
  }
  price_sim(res, cell.sim, opts.perf);
  return res;
}

void CellTable::append_json(rt::obs::MetricsWriter& w) const {
  using rt::obs::JsonValue;
  const auto level = [](const rt::cachesim::CacheConfig& c,
                        const rt::cachesim::LevelStats& s) {
    JsonValue v = JsonValue::object();
    v.set("size_bytes", c.size_bytes)
        .set("line_bytes", static_cast<long>(c.line_bytes))
        .set("assoc", static_cast<long>(c.assoc))
        .set("write_allocate", c.write_allocate)
        .set("write_back", c.write_back)
        .set("accesses", s.accesses)
        .set("misses", s.misses)
        .set("writebacks", s.writebacks);
    return v;
  };
  for (const Cell& c : cells_) {
    const rt::core::TilingPlan& p = c.key.plan;
    w.add_record()
        .set("kernel",
             std::string(rt::kernels::kernel_info(c.key.kernel).name))
        .set("n", c.key.n)
        .set("k_dim", c.key.k_dim)
        .set("steps", c.key.time_steps)
        .set("transform", std::string(rt::core::transform_name(p.transform)))
        .set("backend", std::string(rt::core::backend_name(p.backend)))
        .set("schedule", std::string(rt::core::schedule_name(p.schedule)))
        .set("tile", p.tiled ? JsonValue(std::to_string(p.tile.ti) + "x" +
                                         std::to_string(p.tile.tj))
                             : JsonValue())
        .set("dip", p.dip)
        .set("djp", p.djp)
        .set("status", rt::guard::status_name(c.res.status))
        .set("flops", c.res.sim.flops)
        .set("l1", level(c.key.l1, c.res.sim.l1))
        .set("l2", level(c.key.l2, c.res.sim.l2));
  }
}

}  // namespace rt::bench
