#include "rt/kernels/kernel_info.hpp"

#include <stdexcept>

#include "rt/par/thread_pool.hpp"

namespace rt::kernels {

namespace {
// JACOBI: 6 loads of B + 1 store of A; 5 adds + 1 mul.
// REDBLACK: per coloured point 7 loads + 1 store; 5 adds + 1 add + 2 mul.
//           Every interior point is coloured exactly once per full sweep.
// RESID: 27 loads of U + 1 load of V + 1 store of R;
//        (5 + 11 + 7) adds + 4 muls + 4 subs = 31 flops.
// PSINV: 27 loads of R + 1 load + 1 store of U; 31 flops.
const KernelInfo kInfos[] = {
    {KernelId::kJacobi, "JACOBI", rt::core::StencilSpec::jacobi3d(), 7, 6, 2},
    {KernelId::kRedBlack, "REDBLACK", rt::core::StencilSpec::redblack3d(), 8,
     8, 1},
    {KernelId::kResid, "RESID", rt::core::StencilSpec::resid27(), 29, 31, 3},
    {KernelId::kPsinv, "PSINV", rt::core::StencilSpec{"psinv27", 2, 2, 3}, 29,
     31, 2},
};
}  // namespace

const KernelInfo& kernel_info(KernelId id) {
  for (const KernelInfo& k : kInfos) {
    if (k.id == id) return k;
  }
  throw std::invalid_argument("unknown kernel id");
}

const std::vector<KernelId>& all_kernels() {
  // The paper's three evaluation kernels (Table 3 / Figures 14-19).
  static const std::vector<KernelId> kAll = {
      KernelId::kJacobi, KernelId::kRedBlack, KernelId::kResid};
  return kAll;
}

namespace {

/// plane(k) for every K plane of @p a, on @p pool when given.
template <class Plane>
void for_each_plane(const rt::array::Array3D<double>& a,
                    rt::par::ThreadPool* pool, const Plane& plane) {
  if (pool != nullptr) {
    pool->parallel_for(a.n3(), plane);
  } else {
    for (long k = 0; k < a.n3(); ++k) plane(k);
  }
}

}  // namespace

void init_grid(rt::array::Array3D<double>& a, double scale,
               rt::par::ThreadPool* pool) {
  for_each_plane(a, pool, [&a, scale](long k) {
    for (long j = 0; j < a.n2(); ++j) {
      for (long i = 0; i < a.n1(); ++i) a(i, j, k) = grid_value(scale, i, j, k);
    }
  });
}

void init_grid_shell(rt::array::Array3D<double>& a, double scale,
                     rt::par::ThreadPool* pool) {
  const long n1 = a.n1(), n2 = a.n2(), n3 = a.n3();
  for_each_plane(a, pool, [&a, scale, n1, n2, n3](long k) {
    const bool face = k == 0 || k == n3 - 1;
    for (long j = 0; j < n2; ++j) {
      if (face || j == 0 || j == n2 - 1) {
        for (long i = 0; i < n1; ++i) a(i, j, k) = grid_value(scale, i, j, k);
      } else if (n1 > 0) {
        a(0, j, k) = grid_value(scale, 0, j, k);
        a(n1 - 1, j, k) = grid_value(scale, n1 - 1, j, k);
      }
    }
  });
}

}  // namespace rt::kernels
