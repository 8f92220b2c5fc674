#include "rt/multigrid/operators.hpp"

#include <algorithm>
#include <cmath>

namespace rt::multigrid {

namespace {

/// Max of |v| over interior K plane @p k.
double plane_max_abs(const rt::array::Array3D<double>& u, long k) {
  double m = 0.0;
  for (long j = 1; j < u.n2() - 1; ++j) {
    for (long i = 1; i < u.n1() - 1; ++i) {
      m = std::max(m, std::abs(u(i, j, k)));
    }
  }
  return m;
}

}  // namespace

double rms_norm(const rt::array::Array3D<double>& u,
                const rt::simd::Exec& ex) {
  const double pts =
      static_cast<double>(u.n1() - 2) * (u.n2() - 2) * (u.n3() - 2);
  return std::sqrt(rt::simd::sum_squares(ex, u) / pts);
}

Norms norm2u3(const rt::array::Array3D<double>& u, const rt::simd::Exec& ex) {
  const double linf = rt::simd::reduce_planes(
      ex, u.n3() - 2, 0.0, [&](long k) { return plane_max_abs(u, k + 1); },
      [](double a, double b) { return std::max(a, b); });
  return Norms{rms_norm(u, ex), linf};
}

}  // namespace rt::multigrid
