#pragma once
// Term tables: the one definition of each paper stencil.  A class of
// neighbours is an ordered list of (di, dj, dk) offsets, a class sum is a
// left fold in table order, and each stencil's combine expression is
// written once, over a neighbour reader at(offset).  The accessor nests
// (rt/kernels/*.hpp) read through point_reader, in table order, so the
// traced access sequence follows the tables; every ISA stamp of the row
// bodies (rt_simd) reads through row pointers; StencilSpec and
// KernelInfo's access counts are computed from the tables.  The order is
// the paper codes' and must not change: bit-identity between the accessor
// nests and every row stamp is the contract.

#include <array>
#include <cstddef>
#include <utility>

namespace rt::core {

/// A neighbour's offset from the updated point (I is the fastest axis).
struct Offset {
  int di = 0, dj = 0, dk = 0;
  friend constexpr bool operator==(const Offset&, const Offset&) = default;
};

/// One class of neighbours, in summation order.
template <std::size_t N>
using Terms = std::array<Offset, N>;

namespace terms {

inline constexpr Offset kCentre{};

/// JACOBI (paper Fig. 3).
inline constexpr Terms<6> kJacobiFaces{
    {{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}};
/// Red-black SOR (paper Fig. 12), with and without a right-hand side.
inline constexpr Terms<6> kRedBlackFaces{
    {{-1, 0, 0}, {0, -1, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}};
/// RESID (paper Fig. 13) and PSINV: faces (t1), edges (t2), corners (t3).
inline constexpr Terms<6> k27Faces{
    {{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}};
inline constexpr Terms<12> k27Edges{
    {{-1, -1, 0}, {1, -1, 0}, {-1, 1, 0}, {1, 1, 0}, {0, -1, -1}, {0, 1, -1},
     {0, -1, 1}, {0, 1, 1}, {-1, 0, -1}, {-1, 0, 1}, {1, 0, -1}, {1, 0, 1}}};
inline constexpr Terms<8> k27Corners{
    {{-1, -1, -1}, {1, -1, -1}, {-1, 1, -1}, {1, 1, -1}, {-1, -1, 1},
     {1, -1, 1}, {-1, 1, 1}, {1, 1, 1}}};

/// The coefficients the benches, run_steps and the solve server use.
inline constexpr double kJacobiC = 1.0 / 6.0;
inline constexpr double kRedBlackC1 = 0.4;
inline constexpr double kRedBlackC2 = 0.1;

/// at(t[0]) + ... + at(t[N-1]), a left fold; the reads run in table order
/// (a braced list is evaluated left to right).
template <std::size_t N, class At>
constexpr double sum(const Terms<N>& t, const At& at) {
  return [&]<std::size_t... q>(std::index_sequence<q...>) {
    const double v[] = {at(t[q])...};
    return (... + v[q]);
  }(std::make_index_sequence<N>{});
}

// The combine expressions, each reading in its paper statement's order.

/// JACOBI: c * (faces of b).
template <class At>
constexpr double jacobi(const At& b, double c) {
  return c * sum(kJacobiFaces, b);
}

/// Red-black: c1 * a + c2 * (faces of a).
template <class At>
constexpr double redblack(const At& a, double c1, double c2) {
  const double centre = a(kCentre);
  return c1 * centre + c2 * sum(kRedBlackFaces, a);
}

/// Red-black with a right-hand side: the update above + r.
template <class At, class Rhs>
constexpr double redblack_rhs(const At& a, const Rhs& r, double c1,
                              double c2) {
  const double u = redblack(a, c1, c2);
  return u + r(kCentre);
}

/// RESID: v - a0 u - a1 (faces of u) - a2 (edges) - a3 (corners).
template <class At, class V>
constexpr double resid(const At& u, const V& v,
                       const std::array<double, 4>& a) {
  const double t1 = sum(k27Faces, u), t2 = sum(k27Edges, u),
               t3 = sum(k27Corners, u), vc = v(kCentre), uc = u(kCentre);
  return vc - a[0] * uc - a[1] * t1 - a[2] * t2 - a[3] * t3;
}

/// PSINV: u + c0 r + c1 (faces of r) + c2 (edges) + c3 (corners).
template <class At, class U>
constexpr double psinv(const At& r, const U& u,
                       const std::array<double, 4>& c) {
  const double t1 = sum(k27Faces, r), t2 = sum(k27Edges, r),
               t3 = sum(k27Corners, r), uc = u(kCentre), rc = r(kCentre);
  return uc + c[0] * rc + c[1] * t1 + c[2] * t2 + c[3] * t3;
}

/// The accessor nests' reader: at(o) = acc.load(i + o.di, j + o.dj, k + o.dk).
template <class Acc>
constexpr auto point_reader(Acc& acc, long i, long j, long k) {
  return [&acc, i, j, k](Offset o) {
    return acc.load(i + o.di, j + o.dj, k + o.dk);
  };
}

}  // namespace terms
}  // namespace rt::core
