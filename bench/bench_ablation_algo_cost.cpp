// Ablation: compile-time cost of the tile-selection algorithms themselves
// (paper Section 3.3 argues Euc3D is O(log Cs) and cheap enough to run at
// runtime for multigrid codes with dynamically sized grids; GcdPad is
// cheaper still; Pad is the most expensive but "still very small in
// practice").  Each row is the median, over kRepeats batches, of the wall
// time per call in a batch sized to take at least kBatchSeconds.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "rt/bench/options.hpp"
#include "rt/bench/table.hpp"
#include "rt/core/euc3d.hpp"
#include "rt/core/euclid.hpp"
#include "rt/core/gcdpad.hpp"
#include "rt/core/pad.hpp"
#include "rt/core/square_tile.hpp"

namespace {

const rt::core::StencilSpec kSpec = rt::core::StencilSpec::jacobi3d();
constexpr long kDi = 341;  // pathological size: worst case for enumeration
constexpr int kRepeats = 9;
constexpr double kBatchSeconds = 0.01;

/// Keep @p v alive: the compiler must assume the asm reads it.
template <class T>
void do_not_optimize(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

template <class F>
double seconds_for(const F& call, long iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (long i = 0; i < iters; ++i) call();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One table row: the median ns per call of @p call, and the calls per batch.
template <class F>
std::vector<std::string> time_row(const std::string& name, const F& call) {
  long iters = 1;
  while (seconds_for(call, iters) < kBatchSeconds) iters *= 2;
  std::vector<double> ns;
  for (int r = 0; r < kRepeats; ++r) {
    ns.push_back(seconds_for(call, iters) * 1e9 / static_cast<double>(iters));
  }
  std::nth_element(ns.begin(), ns.begin() + kRepeats / 2, ns.end());
  const double median = ns[kRepeats / 2];
  return {name, rt::bench::fmt(median, median < 100 ? 2 : 0),
          std::to_string(iters)};
}

}  // namespace

int main(int argc, char** argv) {
  rt::bench::parse_options(argc, argv);
  std::vector<std::vector<std::string>> rows;
  const auto add = [&rows](const std::string& name, const auto& call) {
    rows.push_back(time_row(name, call));
  };
  for (long cs : {512L, 2048L, 8192L, 32768L, 131072L}) {
    add("BM_Euc3d/" + std::to_string(cs),
        [cs] { do_not_optimize(rt::core::euc3d(cs, kDi, kDi, kSpec)); });
  }
  for (long cs : {512L, 2048L, 8192L, 32768L, 131072L}) {
    add("BM_GcdPad/" + std::to_string(cs),
        [cs] { do_not_optimize(rt::core::gcd_pad(cs, kDi, kDi, kSpec)); });
  }
  for (long cs : {512L, 2048L, 8192L}) {
    add("BM_Pad/" + std::to_string(cs),
        [cs] { do_not_optimize(rt::core::pad(cs, kDi, kDi, kSpec)); });
  }
  add("BM_SquareTile",
      [] { do_not_optimize(rt::core::square_tile(2048, kSpec)); });
  for (long cs : {2048L, 32768L, 1L << 20}) {
    add("BM_EucPareto/" + std::to_string(cs),
        [cs] { do_not_optimize(rt::core::euc_pareto(cs, kDi)); });
  }
  std::cout << "Planner cost, median of " << kRepeats
            << " batches of at least " << kBatchSeconds * 1e3 << " ms:\n";
  rt::bench::print_table({"Benchmark", "ns/call", "calls/batch"}, rows);
  return 0;
}
