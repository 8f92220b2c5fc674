#include "reference.hpp"

#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/kernels/jacobi3d.hpp"
#include "rt/kernels/redblack.hpp"
#include "rt/kernels/resid.hpp"
#include "rt/multigrid/sor_solver.hpp"
#include "rt/serve/solve.hpp"
#include "trace.hpp"

namespace e2e {

using rt::array::Array3D;
using rt::serve::ServeKernel;

namespace {

/// The deterministic grid init the served kernel paths use (array @p idx
/// is scaled by 1 / (1 + idx)), over the logical region only.
void init_grid(Array3D<double>& a, int idx) {
  const double scale = 1.0 / (1.0 + idx);
  for (long k = 0; k < a.n3(); ++k) {
    for (long j = 0; j < a.n2(); ++j) {
      for (long i = 0; i < a.n1(); ++i) {
        a(i, j, k) = scale * (0.001 * static_cast<double>(i) +
                              0.002 * static_cast<double>(j) +
                              0.003 * static_cast<double>(k));
      }
    }
  }
}

Reference kernel_reference(const rt::serve::SolveParams& p) {
  Scope span("kernels", "reference");
  const long k = p.k > 0 ? p.k : p.n;
  std::vector<Array3D<double>> a;
  for (int i = 0; i < rt::serve::num_arrays_for(p.kernel); ++i) {
    a.emplace_back(rt::array::Dims3::unpadded(p.n, p.n, k));
    init_grid(a.back(), i);
  }
  for (int t = 0; t < p.tsteps; ++t) {
    switch (p.kernel) {
      case ServeKernel::kJacobi:
        rt::kernels::jacobi3d(a[0], a[1], 1.0 / 6.0);
        rt::kernels::copy_interior(a[1], a[0]);
        break;
      case ServeKernel::kRedBlack:
        rt::kernels::redblack_naive(a[0], 0.4, 0.1);
        break;
      case ServeKernel::kResid:
        rt::kernels::resid(a[0], a[1], a[2], rt::kernels::nas_mg_a());
        break;
      default:
        break;
    }
  }
  Reference r;
  r.checksum = rt::serve::checksum_region(a[0]);
  r.iters = p.tsteps;
  return r;
}

}  // namespace

Reference reference_solve(const rt::serve::SolveParams& p) {
  Reference r;
  switch (p.kernel) {
    case ServeKernel::kMgrid: {
      Scope span("multigrid", "reference");
      rt::multigrid::MgOptions mo;
      mo.lt = 0;  // n = 2^lt + 2
      while ((1L << (mo.lt + 1)) <= p.n - 2) ++mo.lt;
      mo.seed = p.seed;
      rt::multigrid::MgSolver s(mo);
      s.setup();
      for (int t = 0; t < p.tsteps; ++t) s.iterate();
      r.iters = p.tsteps;
      r.residual = s.residual_norm();
      r.checksum = rt::serve::checksum_region(s.u());
      return r;
    }
    case ServeKernel::kSor: {
      Scope span("multigrid", "reference");
      rt::multigrid::SorOptions so;
      so.n = p.n;
      rt::multigrid::SorSolver s(so);
      s.setup(p.seed);
      r.iters = s.solve(0, p.tsteps);
      r.residual = s.residual_linf();
      r.checksum = rt::serve::checksum_region(s.u());
      return r;
    }
    default:
      return kernel_reference(p);
  }
}

Reference mg_solve_to_tolerance(rt::multigrid::MgSolver& s, double rel_tol,
                                std::vector<double>* setup_ms) {
  {
    Scope span("multigrid", "setup", setup_ms);
    s.setup();
  }
  double r0 = 0;
  {
    Scope span("multigrid", "residual_norm");
    r0 = s.residual_norm();
  }
  Reference out;
  out.residual = r0;
  // The cap only bounds a broken solver; the tolerance ends every solve.
  while (out.residual > rel_tol * r0 && out.iters < 100) {
    {
      Scope span("multigrid", "iterate");
      s.iterate();
    }
    ++out.iters;
    Scope span("multigrid", "residual_norm");
    out.residual = s.residual_norm();
  }
  return out;
}

}  // namespace e2e
