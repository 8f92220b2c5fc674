// Ablation: planner-backend comparison (model vs lattice vs oblivious).
// Runs JACOBI / RESID / PSINV (the MGRID smoother) across problem sizes —
// including the power-of-two N=256, where a 256-element leading dimension
// aliases set-mapped caches maximally — under two simulated L1 geometries:
// the paper's direct-mapped 16KB and a 2-way 16KB of the same capacity.
//
// What each backend claims, and what this bench checks:
//   model      the paper's searches: capacity tiles sized for the
//              direct-mapped cache (conflict-blind under associativity)
//   lattice    associativity-aware tiles whose per-set line occupancy
//              never exceeds the way count — on at least one
//              set-associative cell it must beat the model backend's
//              simulated L1 miss rate (that is the point of the backend)
//   oblivious  cache-parameter-free recursive schedule — with cache
//              probing disabled (--backend=auto on an unprobed host
//              resolves to it) it must still emit a tiled recursive plan,
//              not degrade to the untiled loop
//
// Before any measurement, every backend's plan is executed serially and
// its logical region checksummed (rt::simd::checksum) against the
// untiled serial reference: a planner backend may only change *when* a
// point is updated within a sweep, never the arithmetic, so all checksums
// must match bit-for-bit.  Any violation of the three checks above exits 1.
//
// --json=FILE writes one record per (kernel, N, backend, geometry) cell
// plus a summary record (results/BENCH_10.json via scripts/reproduce.sh).

#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/bench/options.hpp"
#include "rt/bench/runner.hpp"
#include "rt/bench/table.hpp"
#include "rt/core/backend.hpp"
#include "rt/core/plan.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/kernels/psinv.hpp"
#include "rt/simd/exec.hpp"

namespace {

using rt::array::Array3D;
using rt::array::Dims3;
using rt::core::Backend;
using rt::core::LoopSchedule;
using rt::core::TilingPlan;
using rt::core::Transform;
using rt::kernels::KernelId;

Array3D<double> make_grid(const Dims3& d, double seed) {
  Array3D<double> a(d);
  for (long k = 0; k < a.n3(); ++k) {
    for (long j = 0; j < a.n2(); ++j) {
      for (long i = 0; i < a.n1(); ++i) {
        a(i, j, k) = seed + 0.001 * static_cast<double>(i) +
                     0.002 * static_cast<double>(j) +
                     0.003 * static_cast<double>(k);
      }
    }
  }
  return a;
}

/// One serial sweep of @p kid under @p plan's loop schedule (flat / tiled /
/// recursive), on the accessor nests (rt::simd at kScalar), returning
/// the checksum of the result's logical region (padding never
/// participates, so differently padded plans of the same computation hash
/// equal iff bit-identical).
std::uint64_t checksum_under_plan(KernelId kid, long n, long kd,
                                  const TilingPlan& plan) {
  const Dims3 d = Dims3::padded(n, n, kd, plan.dip, plan.djp);
  const rt::simd::Exec serial{nullptr, rt::simd::SimdLevel::kScalar};
  switch (kid) {
    case KernelId::kJacobi: {
      Array3D<double> b = make_grid(d, 0.5), a(d);
      rt::simd::jacobi(serial, plan, a, b, 1.0 / 6.0);
      return rt::simd::checksum(serial, a);
    }
    case KernelId::kResid: {
      Array3D<double> v = make_grid(d, 0.7), u = make_grid(d, 0.1), r(d);
      rt::simd::resid(serial, plan, r, v, u, rt::kernels::nas_mg_a());
      return rt::simd::checksum(serial, r);
    }
    case KernelId::kPsinv: {
      Array3D<double> r = make_grid(d, 0.7), u = make_grid(d, 0.1);
      rt::simd::psinv(serial, plan, u, r, rt::kernels::nas_mg_c());
      return rt::simd::checksum(serial, u);
    }
    default:
      return 0;
  }
}

std::string backend_str(Backend b) {
  return std::string(rt::core::backend_name(b));
}

}  // namespace

int main(int argc, char** argv) {
  const rt::bench::BenchOptions bo = rt::bench::parse_options(argc, argv);
  // N=256 is the deliberate worst case: a power-of-two leading dimension
  // walks the set index in lockstep, so capacity-only tiles conflict.
  std::vector<long> sizes = {200, 256, 330};
  if (bo.nmin > 0 || bo.nmax > 0 || bo.nstep > 0 || bo.full) {
    sizes = bo.sweep(200, 330, 56, 25);
  }
  const struct {
    KernelId id;
    const char* name;
  } kernels[] = {{KernelId::kJacobi, "JACOBI"},
                 {KernelId::kResid, "RESID"},
                 {KernelId::kPsinv, "PSINV"}};
  const Backend backends[] = {Backend::kModel, Backend::kLattice,
                              Backend::kOblivious};
  const struct {
    const char* name;
    std::uint32_t assoc;
  } geoms[] = {{"dm-16K", 1}, {"2way-16K", 2}};
  const Transform tr = Transform::kTile;

  bool failed = false;
  bool checksums_ok = true;

  // ---- Check 1: every backend's plan is bit-identical to serial. -------
  {
    const long vn = 96, vk = 30;
    std::cout << "bit-identity: each backend plan vs the untiled serial "
                 "reference (N=" << vn << ", rt::simd::checksum)\n";
    for (const auto& kn : kernels) {
      const rt::core::StencilSpec& spec = rt::kernels::kernel_info(kn.id).spec;
      TilingPlan ref;  // untiled, unpadded, flat
      ref.dip = vn;
      ref.djp = vn;
      const std::uint64_t want = checksum_under_plan(kn.id, vn, vk, ref);
      for (Backend b : backends) {
        rt::core::CacheGeom geom;  // paper L1: 2048 doubles, 4/line, DM
        geom.line_elems = 4;
        const rt::core::PlanReport rep =
            rt::core::plan_with_backend(b, tr, geom, vn, vn, spec, vk);
        const std::uint64_t got = checksum_under_plan(kn.id, vn, vk, rep.plan);
        std::cout << "  " << kn.name << " " << backend_str(b) << ": "
                  << std::hex << got << std::dec
                  << (got == want ? " ok" : " MISMATCH") << "\n";
        if (got != want) {
          std::cerr << "ERROR: " << kn.name << " under the " << backend_str(b)
                    << " backend is not bit-identical to serial\n";
          checksums_ok = false;
          failed = true;
        }
      }
    }
    std::cout << "\n";
  }

  // ---- Check 2: simulated sweep, model vs lattice vs oblivious. --------
  rt::obs::MetricsWriter writer;
  // miss[geom][backend] -> per-(kernel,N) L1 miss rates, cell-aligned.
  std::map<std::string, std::map<Backend, std::vector<double>>> miss;
  std::vector<std::string> cell_names;
  std::vector<std::vector<std::string>> rows;
  for (const auto& g : geoms) {
    for (const auto& kn : kernels) {
      for (long n : sizes) {
        std::vector<std::string> row{g.name, kn.name, std::to_string(n)};
        for (Backend b : backends) {
          rt::bench::RunOptions ro;
          ro.time_steps = bo.steps;
          ro.l1.assoc = g.assoc;
          ro.backend = b;
          const auto r = rt::bench::run_kernel(kn.id, tr, n, ro);
          miss[g.name][b].push_back(r.l1_miss_pct);
          row.push_back(rt::bench::fmt(r.l1_miss_pct, 2));
          row.push_back(r.plan.tiled
                            ? std::to_string(r.plan.tile.ti) + "x" +
                                  std::to_string(r.plan.tile.tj)
                            : "-");
          if (!bo.json.empty()) {
            rt::obs::JsonValue& rec =
                rt::bench::append_json_record(writer, kn.name, n, r);
            rec.set("bench", "backend_ablation");
            rec.set("geometry", g.name);
            rec.set("l1_assoc", static_cast<long>(g.assoc));
            rec.set("schedule", std::string(rt::core::schedule_name(
                                    r.plan.schedule)));
          }
        }
        if (g.name == geoms[0].name) {
          cell_names.push_back(std::string(kn.name) + "/" +
                               std::to_string(n));
        }
        rows.push_back(std::move(row));
      }
    }
  }
  rt::bench::print_table({"geom", "kernel", "N", "model L1%", "tile",
                          "lattice L1%", "tile", "oblivious L1%", "tile"},
                         rows);

  // The lattice backend exists to respect associativity: on the 2-way
  // geometry it must strictly beat the conflict-blind model tile on at
  // least one cell (it typically wins the power-of-two ones).
  int lattice_wins = 0;
  std::string win_cells;
  {
    const auto& m = miss["2way-16K"];
    const auto& model = m.at(Backend::kModel);
    const auto& lattice = m.at(Backend::kLattice);
    for (std::size_t i = 0; i < model.size() && i < lattice.size(); ++i) {
      if (lattice[i] < model[i]) {
        ++lattice_wins;
        if (!win_cells.empty()) win_cells += ", ";
        win_cells += cell_names[i];
      }
    }
  }
  std::cout << "\nlattice < model (simulated L1 misses, 2-way 16K): "
            << lattice_wins << " of " << cell_names.size() << " cells";
  if (lattice_wins > 0) std::cout << " (" << win_cells << ")";
  std::cout << "\n";
  if (lattice_wins == 0) {
    std::cerr << "ERROR: the lattice backend never beat the model backend "
                 "on the set-associative geometry\n";
    failed = true;
  }

  // ---- Check 3: oblivious holds up with cache probing disabled. --------
  bool oblivious_ok = true;
  {
    rt::bench::RunOptions ro;
    ro.time_steps = 1;
    ro.cache_probed = false;  // unprobed host: auto must pick oblivious
    const Backend auto_b = rt::core::auto_backend(ro.geom());
    ro.backend = auto_b;
    const auto r = rt::bench::run_kernel(KernelId::kJacobi, tr, 200, ro);
    oblivious_ok = auto_b == Backend::kOblivious && r.plan.tiled &&
                   r.plan.schedule == LoopSchedule::kRecursive &&
                   r.status == rt::guard::Status::kOk;
    std::cout << "unprobed auto backend: " << backend_str(auto_b)
              << ", plan " << (r.plan.tiled ? "tiled" : "UNTILED") << " "
              << rt::core::schedule_name(r.plan.schedule)
              << (oblivious_ok ? " (ok)" : " (ERROR)") << "\n";
    if (!oblivious_ok) {
      std::cerr << "ERROR: --backend=auto on an unprobed host must run the "
                   "oblivious backend's tiled recursive plan, not degrade "
                   "to the untiled loop\n";
      failed = true;
    }
  }

  if (!bo.json.empty()) {
    rt::obs::JsonValue& sum = writer.add_record();
    sum.set("bench", "backend_ablation").set("scenario", "summary");
    sum.set("checksums_bit_identical", checksums_ok);
    sum.set("lattice_beats_model_cells", lattice_wins);
    sum.set("lattice_beats_model_on_set_associative", lattice_wins > 0);
    sum.set("oblivious_unprobed_recursive", oblivious_ok);
    std::string why;
    if (writer.write_file_checked(bo.json, &why) !=
        rt::guard::Status::kOk) {
      std::cerr << "error: cannot write " << bo.json << ": " << why << "\n";
      failed = true;
    } else {
      std::cout << "wrote " << writer.num_records() << " records to "
                << bo.json << "\n";
    }
  }
  return failed ? 1 : 0;
}
