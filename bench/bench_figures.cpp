// The simulated artifacts of the paper reproduction in one driver: Table 3,
// Figures 14-21, the PSINV extension, the closed-form model validation and
// the runner-based ablations.  Each is a declarative spec — kernels,
// columns (a transform the runner plans, or a plan builder), default and
// --full sizes, a RunOptions adjustment and a printer — over one
// in-process cell table (rt/bench/cells.hpp) that simulates every distinct
// (kernel, plan, N, caches, steps) cell once, however many specs ask.
//
// Every spec runs, in the order below.  Before each the driver prints one
// `== <name> ==` line, the name of the bench binary the spec replaced
// without "bench_"; at the end it prints one stderr line, cells requested
// and cells simulated.  The sweep flags keep their meaning inside each
// spec (bench/README.md lists which spec honours which).  --json=FILE
// writes one record per simulated cell with its integer counts.  Under
// --no-sim only host-timed output prints (with --host: Table 3's host row
// and the host groups of Figures 15/17/19); specs without any are skipped.
//
// Paper values for reference (Table 3):
//              orig L1/L2    Tile  Euc3D GcdPad  Pad  GcdPadNT
//   JACOBI %perf              13     10    16     17     -1
//          L1 32.7, L2 6.3   1.9    3.7   4.8    5.1    1.6   (miss-rate pts)
//   REDBLACK %perf            89     74   120    121     10
//          L1 22.3, L2 4.5   6.3    9.3  12.5   12.6    2.8
//   RESID  %perf              16     17    27     24      4
//          L1 10.1, L2 1.3   1.9    2.5   4.7    4.7    2.2

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "rt/bench/cells.hpp"
#include "rt/bench/options.hpp"
#include "rt/bench/table.hpp"
#include "rt/core/analysis.hpp"
#include "rt/core/euc3d.hpp"
#include "rt/core/gcdpad.hpp"
#include "rt/core/tiling2d.hpp"

namespace {

using rt::bench::BenchOptions;
using rt::bench::fmt;
using rt::bench::RunOptions;
using rt::bench::RunResult;
using rt::core::TilingPlan;
using rt::core::Transform;
using rt::kernels::KernelId;
using Adjust = std::function<void(RunOptions&)>;
using Rows = std::vector<std::vector<std::string>>;
using Metric = double RunResult::*;
using Sizes = std::function<std::vector<long>(const BenchOptions&)>;

/// One column of a spec: a transform the runner plans, or a plan builder,
/// with an optional per-column options adjustment.
struct Column {
  std::string label;
  Transform tr = Transform::kOrig;
  std::function<TilingPlan(long n)> plan;  ///< set: run this plan instead
  Adjust adjust;
};

Column col(Transform t, Adjust adjust = {}) {
  return {std::string(rt::core::transform_name(t)), t, {}, std::move(adjust)};
}

struct Grid;

struct Spec {
  const char* name;  ///< the bench binary it replaced, without "bench_"
  Sizes sizes;
  std::vector<KernelId> kernels;
  std::vector<Column> columns;
  Adjust options;  ///< spec-wide adjustment
  bool backend;    ///< plans through --backend (else the model planner)
  bool host;       ///< honours --host; prints under --no-sim
  std::function<void(const Grid&)> print;
};

/// A spec's results: at(k, i, c) for kernel k, size i and column c.
struct Grid {
  const Spec& spec;
  RunOptions ro;  ///< the spec's options, before column adjustments
  std::vector<long> sizes;
  std::vector<RunResult> cells;
  const RunResult& at(std::size_t k, std::size_t i, std::size_t c) const {
    return cells[(k * sizes.size() + i) * spec.columns.size() + c];
  }
};

Sizes sweep(long lo, long hi, long step, long full) {
  return [=](const BenchOptions& bo) { return bo.sweep(lo, hi, step, full); };
}

/// Columns Orig, Tile, Euc3D, GcdPad, Pad, GcdPadNT (indices 0-5).
const std::vector<Column> kSix = {
    col(Transform::kOrig),   col(Transform::kTile), col(Transform::kEuc3d),
    col(Transform::kGcdPad), col(Transform::kPad),  col(Transform::kGcdPadNT)};
const std::vector<std::size_t> kAllSix = {0, 1, 2, 3, 4, 5};

std::string kernel_name(const Grid& g, std::size_t k) {
  return std::string(rt::kernels::kernel_info(g.spec.kernels[k]).name);
}

std::string tile_str(const rt::core::IterTile& t) {
  return "(" + std::to_string(t.ti) + "," + std::to_string(t.tj) + ")";
}

/// A hand-built plan that reads as the planner writes one: tiled, on the
/// JI tile schedule, exactly when both tile extents are positive.  Equal
/// plans share a cell, so an ablation plan that matches a transform's
/// reuses that transform's simulation.
TilingPlan built_plan(Transform tr, const rt::core::IterTile& tile, long dip,
                      long djp) {
  TilingPlan p{.transform = tr, .tile = tile, .dip = dip, .djp = djp};
  p.tiled = tile.ti > 0 && tile.tj > 0;
  if (p.tiled) p.schedule = rt::core::LoopSchedule::kTiled;
  return p;
}

/// Euc3D's JACOBI tile at array-tile depth @p atd (ablation_atd).
rt::core::Euc3dResult atd_tile(long n, int atd) {
  rt::core::StencilSpec spec = rt::core::StencilSpec::jacobi3d();
  spec.atd = atd;
  return rt::core::euc3d(2048, n, n, spec);
}

/// One figure group: metric @p m of columns @p cs over the sizes.
void group(const Grid& g, std::size_t k, const std::string& title,
           const std::vector<std::size_t>& cs, Metric m, int prec = 2) {
  std::vector<std::string> names;
  std::vector<std::vector<double>> ys;
  for (std::size_t c : cs) {
    names.push_back(g.spec.columns[c].label);
    ys.emplace_back();
    for (std::size_t i = 0; i < g.sizes.size(); ++i) {
      ys.back().push_back(g.at(k, i, c).*m);
    }
  }
  rt::bench::print_series(title, "N", g.sizes, names, ys, prec);
}

/// Figures 14-19's three panels of @p m: tiling only, tiling + padding,
/// padding alone.
void panels(const Grid& g, std::size_t k, const std::string& title, Metric m,
            int prec) {
  group(g, k, title + "tiling only", {0, 1, 2}, m, prec);
  group(g, k, title + "tiling + padding", {0, 3, 4}, m, prec);
  group(g, k, title + "padding alone", {0, 5, 3}, m, prec);
}

/// An ablation table: @p intro, the table, then @p note.
void table(const std::string& intro, const std::vector<std::string>& header,
           const Rows& rows, const std::string& note) {
  std::cout << intro << "\n\n";
  rt::bench::print_table(header, rows);
  std::cout << "\n" << note << "\n";
}

/// One row per size: N, then metric @p m of every column at @p prec.
Rows size_rows(const Grid& g, Metric m, int prec) {
  Rows rows;
  for (std::size_t i = 0; i < g.sizes.size(); ++i) {
    rows.push_back({std::to_string(g.sizes[i])});
    for (std::size_t c = 0; c < g.spec.columns.size(); ++c) {
      rows.back().push_back(fmt(g.at(0, i, c).*m, prec));
    }
  }
  return rows;
}

std::vector<std::string> label_header(const Grid& g) {
  std::vector<std::string> h{"N"};
  for (const Column& c : g.spec.columns) h.push_back(c.label);
  return h;
}

void print_table3(const Grid& g) {
  const bool sim = g.ro.simulate;
  std::cout << "Table 3: average improvements over problem sizes "
            << g.sizes.front() << "-" << g.sizes.back() << " (NxNx30, "
            << g.sizes.size() << " sizes, " << g.ro.time_steps
            << " time steps)\n";
  std::vector<std::string> header{"kernel", "orig L1%", "orig L2%", "metric"};
  if (!sim) header.erase(header.begin() + 1, header.begin() + 3);
  for (std::size_t c = 1; c < 6; ++c) header.push_back(g.spec.columns[c].label);
  Rows rows;
  for (std::size_t k = 0; k < g.spec.kernels.size(); ++k) {
    const auto mean = [&](std::size_t c, Metric m) {
      double sum = 0;
      for (std::size_t i = 0; i < g.sizes.size(); ++i) sum += g.at(k, i, c).*m;
      return sum / static_cast<double>(g.sizes.size());
    };
    // % gain over Orig, or (gain == false) percentage points below it.
    const auto row = [&](const std::string& metric, Metric m, bool gain) {
      const double o = mean(0, m);
      rows.push_back({kernel_name(g, k)});
      if (sim) {
        rows.back().push_back(fmt(mean(0, &RunResult::l1_miss_pct), 1));
        rows.back().push_back(fmt(mean(0, &RunResult::l2_miss_pct), 1));
      }
      rows.back().push_back(metric);
      for (std::size_t c = 1; c < 6; ++c) {
        rows.back().push_back(gain ? fmt(100.0 * (mean(c, m) - o) / o, 0)
                                   : fmt(o - mean(c, m), 1));
      }
    };
    if (sim) row("% perf (sim)", &RunResult::sim_mflops, true);
    if (g.ro.time_host) {
      row("% perf (host, " + std::to_string(g.ro.threads) + "t)",
          &RunResult::host_mflops, true);
    }
    if (sim) row("L1 miss rate", &RunResult::l1_miss_pct, false);
    if (sim) row("L2 miss rate", &RunResult::l2_miss_pct, false);
  }
  rt::bench::print_table(header, rows);
  if (sim) {
    std::cout << "\n(miss-rate rows are percentage-point reductions vs Orig, "
                 "as in the paper)\n";
  }
}

void print_missrates(const Grid& g) {
  for (std::size_t k = 0; k < g.spec.kernels.size(); ++k) {
    const std::string title = "Figure " + std::to_string(14 + 2 * k) + ": " +
                              kernel_name(g, k) + " miss rates — ";
    panels(g, k, title + "L1 %, ", &RunResult::l1_miss_pct, 2);
    group(g, k, title + "L2 %, all", kAllSix, &RunResult::l2_miss_pct);
  }
}

void print_mflops(const Grid& g) {
  for (std::size_t k = 0; k < g.spec.kernels.size(); ++k) {
    const std::string title =
        "Figure " + std::to_string(15 + 2 * k) + ": " + kernel_name(g, k) +
        (k == 0 ? " MFlops (sim UltraSparc2 360MHz) — " : " MFlops (sim) — ");
    if (g.ro.simulate) panels(g, k, title, &RunResult::sim_mflops, 1);
    if (g.ro.time_host) {
      group(g, k,
            title + "host wall-clock MFlops (this machine, " +
                std::to_string(g.ro.threads) + " thread" +
                (g.ro.threads == 1 ? "" : "s") + ")",
            kAllSix, &RunResult::host_mflops, 1);
    }
  }
}

void print_large(const Grid& g) {
  const std::string title = "Figure 20: larger RESID sizes, ";
  group(g, 0, title + "L1 miss rate %", kAllSix, &RunResult::l1_miss_pct);
  group(g, 0, title + "L2 miss rate %", kAllSix, &RunResult::l2_miss_pct);
  group(g, 0, "Figure 21: larger RESID sizes, MFlops (sim UltraSparc2 450MHz)",
        kAllSix, &RunResult::sim_mflops, 1);
}

void print_psinv(const Grid& g) {
  group(g, 0, "PSINV (MGRID smoother): L1 miss rate %", kAllSix,
        &RunResult::l1_miss_pct);
  group(g, 0, "PSINV: MFlops (sim UltraSparc2 360MHz)", kAllSix,
        &RunResult::sim_mflops, 1);
  std::cout << "\nPSINV behaves like RESID (27-pt stencil): tiling+padding "
               "yields the same class\nof improvement, supporting the "
               "paper's expectation for the rest of MGRID.\n";
}

const std::vector<long> kWays = {1, 2, 4, 8};

void print_assoc(const Grid& g) {
  for (std::size_t i = 0; i < g.sizes.size(); ++i) {
    std::vector<std::string> names;
    std::vector<std::vector<double>> cols;
    for (std::size_t c = 0; c < g.spec.columns.size(); ++c) {
      if (c % kWays.size() == 0) {
        names.push_back(g.spec.columns[c].label);
        cols.emplace_back();
      }
      cols.back().push_back(g.at(0, i, c).l1_miss_pct);
    }
    rt::bench::print_series(
        "Ablation: JACOBI L1 miss % vs L1 associativity, N=" +
            std::to_string(g.sizes[i]),
        "ways", kWays, names, cols);
  }
  std::cout << "\nOrig's spikes are pure conflict misses: 2-4 ways absorb "
               "them entirely (N=320's\n61% collapses to 33%).  GcdPad needs "
               "no associativity at all — it is already at\nits floor on the "
               "direct-mapped cache.  This is why a modern 8-way host cannot\n"
               "exhibit the paper's effects and the evaluation runs on the "
               "simulator.\n";
}

void print_writepolicy(const Grid& g) {
  Rows rows;
  for (const auto& r : size_rows(g, &RunResult::l1_miss_pct, 1)) {
    rows.push_back({r[0], "write-around", r[1], r[2], r[3], r[4]});
    rows.push_back({r[0], "write-allocate", r[5], r[6], r[7], r[8]});
  }
  table("Ablation: L1 write policy, JACOBI (paper assumes write-around, as "
        "on the UltraSparc2)",
        {"N", "policy", "Orig L1%", "Tile L1%", "GcdPad L1%", "Pad L1%"},
        rows,
        "With write-allocate the store stream of A fights B's tile for L1 "
        "capacity and\nthe conflict-free guarantee no longer covers it; miss "
        "rates rise across the board.");
}

void print_tlb(const Grid& g) {
  table("Ablation: JACOBI TLB miss rate % (64-entry fully-assoc, 8KB pages)",
        label_header(g), size_rows(g, &RunResult::l1_miss_pct, 3),
        "JI-tiles visit every K plane per tile, so each tile pass touches ~3 "
        "pages per\n(plane, column-band) — TLB miss rates stay tiny and "
        "padding does not hurt:\nthe cache win is not paid back at the TLB "
        "(cf. multi-level tiling, Section 5).");
}

void print_methods3d(const Grid& g) {
  table("Ablation (Sections 3.1-3.4): conflict-avoidance methods, JACOBI L1 "
        "miss rate %",
        label_header(g), size_rows(g, &RunResult::l1_miss_pct, 1),
        "ECS avoids the worst conflicts but wastes 90% of the cache (small "
        "tiles, large\nhalo overhead) and still spikes on pathological dims; "
        "GcdPad/Pad dominate.");
}

void print_l2target(const Grid& g) {
  Rows rows;
  for (std::size_t i = 0; i < g.sizes.size(); ++i) {
    for (std::size_t c = 0; c < g.spec.columns.size(); ++c) {
      const RunResult& r = g.at(0, i, c);
      rows.push_back({std::to_string(g.sizes[i]), g.spec.columns[c].label,
                      c == 0 ? "-" : tile_str(r.plan.tile),
                      fmt(r.l1_miss_pct, 1), fmt(r.l2_miss_pct, 2),
                      fmt(r.sim_mflops, 1)});
    }
  }
  table("Ablation: tiling target level, JACOBI (GcdPad plans)",
        {"N", "target", "tile", "L1 miss %", "L2 miss % (global)",
         "sim MFlops"},
        rows,
        "L1-targeted tiles repair the L2 loss as a side effect (avoided L1 "
        "misses never\nreach L2) — the paper's reason for targeting only the "
        "L1.  Note the L2-sized\nGcdPad tile is actively *harmful* at L1: its "
        "power-of-two pads make the plane\nstride a multiple of the "
        "2048-element L1, so all planes alias.");
}

void print_atd(const Grid& g) {
  const long n = g.sizes.front();
  Rows rows;
  for (std::size_t c = 0; c < g.spec.columns.size(); ++c) {
    const rt::core::Euc3dResult sel = atd_tile(n, static_cast<int>(c) + 1);
    rows.push_back({g.spec.columns[c].label, tile_str(sel.tile),
                    fmt(sel.tile_cost, 3), fmt(g.at(0, 0, c).l1_miss_pct, 2),
                    fmt(g.at(0, 0, c).sim_mflops, 1)});
  }
  table("Ablation: array-tile depth (ATD) for JACOBI at N=" +
            std::to_string(n) + " (correct value: 3)",
        {"ATD", "Euc3D tile", "cost", "L1 miss %", "sim MFlops"}, rows,
        "ATD < 3 under-provisions the live planes (conflicts creep back "
        "in);\nATD > 3 shrinks tiles and raises the cost for no benefit.");
}

void print_analysis(const Grid& g) {
  Rows rows;
  double max_err = 0;
  for (std::size_t i = 0; i < g.sizes.size(); ++i) {
    const RunResult& so = g.at(0, i, 0);
    const RunResult& sg = g.at(0, i, 1);
    const auto po = rt::core::predict_jacobi3d_orig(2048, 4, g.sizes[i]);
    const auto pg = rt::core::predict_jacobi3d_tiled(
        4, sg.plan.tile, rt::core::StencilSpec::jacobi3d());
    const double err = std::max(std::abs(po.l1_miss_pct - so.l1_miss_pct),
                                std::abs(pg.l1_miss_pct - sg.l1_miss_pct));
    max_err = std::max(max_err, err);
    rows.push_back({std::to_string(g.sizes[i]), fmt(so.l1_miss_pct, 1),
                    fmt(po.l1_miss_pct, 1), fmt(sg.l1_miss_pct, 1),
                    fmt(pg.l1_miss_pct, 1), fmt(err, 1)});
  }
  table("Model validation: closed-form L1 miss-rate predictions vs "
        "simulation (JACOBI)",
        {"N", "Orig sim", "Orig model", "GcdPad sim", "GcdPad model",
         "model err (pts)"},
        rows,
        "Large Orig errors flag the conflict spikes — the one thing the "
        "capacity-only\nSection-1 arithmetic cannot see, and exactly what "
        "Section 3's algorithms fix.\nmax error: " +
            fmt(max_err, 1) + " points");
}

std::vector<Spec> specs() {
  const std::vector<KernelId> paper = {KernelId::kJacobi, KernelId::kRedBlack,
                                       KernelId::kResid};
  const std::vector<KernelId> jacobi = {KernelId::kJacobi};
  // L1 associativity 1/2/4/8 under Orig, Tile and GcdPad; the write-around
  // L1 the paper assumes, then a write-allocate (write-back) one.
  std::vector<Column> assoc, policy;
  for (Transform t : {Transform::kOrig, Transform::kTile, Transform::kGcdPad}) {
    for (long a : kWays) {
      assoc.push_back(col(t, [a](RunOptions& ro) {
        ro.l1.assoc = static_cast<std::uint32_t>(a);
      }));
    }
  }
  const std::vector<Column> four = {kSix[0], kSix[1], kSix[3], kSix[4]};
  for (const bool wa : {false, true}) {
    for (const Column& c : four) {
      policy.push_back(col(c.tr, [wa](RunOptions& ro) {
        ro.l1.write_allocate = ro.l1.write_back = wa;
      }));
    }
  }
  // Euc3D planned at array-tile depth 1-6 (3 is right for JACOBI).
  std::vector<Column> atd;
  for (int d = 1; d <= 6; ++d) {
    atd.push_back({std::to_string(d), Transform::kOrig, [d](long n) {
      return built_plan(Transform::kEuc3d, atd_tile(n, d).tile, n, n);
    }, {}});
  }
  // GcdPad planned for the 16K L1 (Cs = 2048 doubles, the paper's target)
  // and for the 2M L2 (Cs = 262144).
  const auto gcd = [](long cs) {
    return [cs](long n) {
      const auto p =
          rt::core::gcd_pad(cs, n, n, rt::core::StencilSpec::jacobi3d());
      return built_plan(Transform::kGcdPad, p.tile, p.dip, p.djp);
    };
  };
  // Section 3.2's effective cache size: a square tile for 10% of the
  // cache, no padding (the paper describes it but does not evaluate it).
  const auto ecs = [](long n) {
    return built_plan(
        Transform::kOrig,
        rt::core::ecs_tile(2048, 0.10, rt::core::StencilSpec::jacobi3d()), n,
        n);
  };
  return {
      {"table3", sweep(200, 400, 25, 4), paper, kSix, {}, true, true,
       print_table3},
      {"fig_missrates", sweep(200, 400, 20, 4), paper, kSix, {}, true, false,
       print_missrates},
      {"fig_mflops", sweep(200, 400, 20, 4), paper, kSix, {}, true, true,
       print_mflops},
      {"fig_large", sweep(400, 700, 50, 10), {KernelId::kResid}, kSix,
       [](RunOptions& ro) {
         ro.perf = rt::cachesim::PerfModelParams::ultrasparc2_450();
       },
       true, false, print_large},
      {"psinv_extension", sweep(200, 400, 50, 10), {KernelId::kPsinv}, kSix,
       {}, false, false, print_psinv},
      // The conflict-pathological sizes of the default sweep, unless a
      // sweep flag asks for a sweep.
      {"ablation_assoc",
       [](const BenchOptions& bo) {
         return bo.nmin > 0 || bo.nmax > 0 || bo.nstep > 0 || bo.full
                    ? bo.sweep(200, 400, 50, 25)
                    : std::vector<long>{260, 300, 320, 400};
       },
       jacobi, assoc, {}, false, false, print_assoc},
      {"ablation_writepolicy", sweep(200, 400, 100, 50), jacobi, policy, {},
       false, false, print_writepolicy},
      // A 64-entry fully associative TLB of 8 KB pages as the "L1" over a
      // huge backing "L2", one time step.
      {"ablation_tlb", sweep(200, 400, 100, 50), jacobi, four,
       [](RunOptions& ro) {
         ro.time_steps = 1;
         ro.l1 = rt::cachesim::CacheConfig{64 * 8192, 8192, 0, true, false};
         ro.l2 = rt::cachesim::CacheConfig{1ULL << 30, 8192, 1, true, false};
       },
       false, false, print_tlb},
      {"ablation_methods3d", sweep(200, 400, 40, 20), jacobi,
       {kSix[0], kSix[1], {"ECS10%", Transform::kOrig, ecs, {}}, kSix[2],
        kSix[3], kSix[4]},
       {}, false, false, print_methods3d},
      {"ablation_l2target", sweep(300, 500, 100, 50), jacobi,
       {{"untiled", Transform::kOrig, {}, {}},
        {"L1 (16K)", Transform::kOrig, gcd(2048), {}},
        {"L2 (2M)", Transform::kOrig, gcd(262144), {}}},
       {}, false, false, print_l2target},
      // One size: --nmax, else 300.
      {"ablation_atd",
       [](const BenchOptions& bo) {
         return std::vector<long>{bo.nmax > 0 ? bo.nmax : 300};
       },
       jacobi, atd, {}, false, false, print_atd},
      {"analysis", sweep(200, 400, 20, 10), jacobi, {kSix[0], kSix[3]}, {},
       true, false, print_analysis},
  };
}

void run_spec(const Spec& s, const BenchOptions& bo,
              rt::bench::CellTable& table) {
  RunOptions ro;
  ro.time_steps = bo.steps;
  ro.simulate = bo.simulate;
  ro.time_host = s.host && bo.host;
  if (bo.threads > 0) ro.threads = bo.threads;
  if (s.options) s.options(ro);
  if (s.backend) ro.backend = bo.resolved_backend(ro.geom());
  Grid g{s, ro, s.sizes(bo), {}};
  for (KernelId kid : s.kernels) {
    for (long n : g.sizes) {
      for (const Column& c : s.columns) {
        RunOptions o = ro;
        if (c.adjust) c.adjust(o);
        g.cells.push_back(c.plan ? table.run_with_plan(kid, c.plan(n), n, o)
                                 : table.run(kid, c.tr, n, o));
      }
    }
  }
  s.print(g);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions bo = rt::bench::parse_options(argc, argv);
  rt::bench::CellTable table;
  for (const Spec& s : specs()) {
    if (!bo.simulate && !(s.host && bo.host)) continue;
    std::cout << "== " << s.name << " ==\n";
    run_spec(s, bo, table);
  }
  std::cerr << "bench_figures: " << table.requested() << " cells requested, "
            << table.simulated() << " simulated\n";
  rt::obs::MetricsWriter w;
  table.append_json(w);
  if (!bo.json.empty() && !w.write_file(bo.json)) {
    std::cerr << "bench_figures: cannot write " << bo.json << "\n";
    return 1;
  }
  return 0;
}
