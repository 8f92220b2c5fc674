#include "rt/kernels/kernel_info.hpp"

#include <array>
#include <stdexcept>

#include "rt/core/stencil_terms.hpp"
#include "rt/par/thread_pool.hpp"

namespace rt::kernels {

namespace {

namespace terms = rt::core::terms;

/// Memory accesses per point of a combine expression from the term tables
/// (rt/core/stencil_terms.hpp): the store plus the reads it makes, counted
/// by running it on a counting reader.
template <class Combine>
constexpr std::uint64_t accesses(const Combine& combine) {
  std::uint64_t n = 1;
  combine([&n](rt::core::Offset) { ++n; return 0.0; });
  return n;
}

constexpr std::array<double, 4> kAny{};

// Flops per point are the term tables' full-expression counts
// (rt/core/stencil_terms.hpp); every interior point is coloured exactly
// once per full red-black sweep.
static_assert(terms::kJacobiFlops == 6);
static_assert(terms::kRedBlackFlops == 8);
static_assert(terms::k27Flops == 31);

constexpr KernelInfo kInfos[] = {
    {KernelId::kJacobi, "JACOBI", rt::core::StencilSpec::jacobi3d(),
     accesses([](const auto& at) { return terms::jacobi(at, 1.0); }),
     terms::kJacobiFlops, 2},
    {KernelId::kRedBlack, "REDBLACK", rt::core::StencilSpec::redblack3d(),
     accesses([](const auto& at) { return terms::redblack(at, 1.0, 1.0); }),
     terms::kRedBlackFlops, 1},
    {KernelId::kResid, "RESID", rt::core::StencilSpec::resid27(),
     accesses([](const auto& at) { return terms::resid<true>(at, at, kAny); }),
     terms::k27Flops, 3},
    {KernelId::kPsinv, "PSINV", rt::core::StencilSpec::psinv27(),
     accesses([](const auto& at) { return terms::psinv<true>(at, at, kAny); }),
     terms::k27Flops, 2},
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
