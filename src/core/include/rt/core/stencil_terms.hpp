#pragma once
// Term tables: the one definition of each paper stencil.  A class of
// neighbours is an ordered list of (di, dj, dk) offsets, a class sum is a
// left fold in table order, and each stencil's combine expression is
// written once, over a neighbour reader at(offset).  The accessor nests
// (rt/kernels/*.hpp) read through point_reader, in table order, so the
// traced access sequence follows the tables; every ISA stamp of the row
// bodies (rt_simd) reads through row pointers; StencilSpec and
// KernelInfo's access and flop counts are computed from the tables.  The
// order is the paper codes' and must not change: bit-identity between the
// accessor nests and every row stamp is the contract.
//
// The zero-coefficient rule.  NAS MG's coefficients zero one class of each
// 27-point operator: a = (-8/3, 0, 1/6, 1/12) RESID's faces and
// c = (-3/8, 1/32, -1/64, 0) PSINV's corners, and the NPB source leaves
// those terms out ("Assume a(1) = 0", "Assume c(3) = 0").  resid and psinv
// take a compile-time flag Full; resid_full(a) / psinv_full(c) give its
// value for a coefficient set, and every caller picks it once per sweep
// or nest call, never per point.  Full = false leaves `- a1 t1` (RESID) or
// `+ c3 t3` (PSINV) out of the combine; the class sum is still read, in
// table order, so the traced access sequence and every simulated count
// stay the same (the row bodies' unread loads are dead code).  Dropping
// a zero term changes a result in two cases only: the running value
// before it is -0.0 (x - 0 t1 with x = -0.0 and t1 < 0 is +0.0, x alone
// is -0.0), or the dropped class sum is +-inf or NaN (0 inf is NaN).  MG
// data has neither: u starts at +0.0, no V-cycle sum turns it into -0.0,
// and every value is finite.  Any other coefficient set evaluates every
// term.

#include <array>
#include <cstddef>
#include <type_traits>
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

/// Whether RESID's combine keeps its face term: false when a[1] == 0.0.
constexpr bool resid_full(const std::array<double, 4>& a) {
  return a[1] != 0.0;
}

/// Whether PSINV's combine keeps its corner term: false when c[3] == 0.0.
constexpr bool psinv_full(const std::array<double, 4>& c) {
  return c[3] != 0.0;
}

/// f(std::bool_constant<full>{}): a run-time choice of the Full flag,
/// made once for everything f runs.
template <class F>
constexpr decltype(auto) with_full(bool full, F&& f) {
  return full ? f(std::true_type{}) : f(std::false_type{});
}

/// RESID: v - a0 u - a1 (faces of u) - a2 (edges) - a3 (corners); with
/// Full = false, without the face term (see the zero-coefficient rule).
template <bool Full, class At, class V>
constexpr double resid(const At& u, const V& v,
                       const std::array<double, 4>& a) {
  const double t1 = sum(k27Faces, u), t2 = sum(k27Edges, u),
               t3 = sum(k27Corners, u), vc = v(kCentre), uc = u(kCentre);
  double x = vc - a[0] * uc;
  if constexpr (Full) x = x - a[1] * t1;
  return x - a[2] * t2 - a[3] * t3;
}

/// PSINV: u + c0 r + c1 (faces of r) + c2 (edges) + c3 (corners); with
/// Full = false, without the corner term (see the zero-coefficient rule).
template <bool Full, class At, class U>
constexpr double psinv(const At& r, const U& u,
                       const std::array<double, 4>& c) {
  const double t1 = sum(k27Faces, r), t2 = sum(k27Edges, r),
               t3 = sum(k27Corners, r), uc = u(kCentre), rc = r(kCentre);
  const double x = uc + c[0] * rc + c[1] * t1 + c[2] * t2;
  if constexpr (Full) return x + c[3] * t3;
  return x;
}

// Flops per updated point of each combine expression with every term
// evaluated: a class sum of N terms is N - 1 adds, and each coefficient
// costs one multiply and one add into the running value.

template <std::size_t N>
constexpr int sum_flops(const Terms<N>&) {
  return static_cast<int>(N) - 1;
}

/// c * sum: the sum and one multiply.
inline constexpr int kJacobiFlops = sum_flops(kJacobiFaces) + 1;
/// c1 * centre + c2 * sum: the sum, two multiplies and one add.
inline constexpr int kRedBlackFlops = sum_flops(kRedBlackFaces) + 3;
/// Three class sums, four coefficients each multiplied and combined.
inline constexpr int k27Flops =
    sum_flops(k27Faces) + sum_flops(k27Edges) + sum_flops(k27Corners) + 2 * 4;

/// The accessor nests' reader: at(o) = acc.load(i + o.di, j + o.dj, k + o.dk).
template <class Acc>
constexpr auto point_reader(Acc& acc, long i, long j, long k) {
  return [&acc, i, j, k](Offset o) {
    return acc.load(i + o.di, j + o.dj, k + o.dk);
  };
}

}  // namespace terms
}  // namespace rt::core
