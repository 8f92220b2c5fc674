#pragma once
// Shared pieces of rt_e2e, the end-to-end benchmark: the seeded random
// source, order statistics, the run result every workload fills in, and
// the correctness gate.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline Clock::duration as_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// splitmix64.  The benchmark's only source of randomness, so one seed
/// reproduces every request mix, arrival time and charge seed on any
/// compiler (the <random> distributions are implementation-defined).
class Rng {
 public:
  /// Independent stream @p stream of seed @p seed.
  Rng(std::uint64_t seed, std::uint64_t stream)
      : s_(seed * 0x9E3779B97F4A7C15ull ^ (stream + 1) * 0xBF58476D1CE4E5B9ull) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  long below(long n) { return static_cast<long>(next() % static_cast<std::uint64_t>(n)); }

 private:
  std::uint64_t s_;
};

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Process peak resident set (getrusage ru_maxrss) in MB.
double peak_rss_mb();

/// Write @p text to @p path; false (and @p err set) on any failure.
bool write_text_file(const std::string& path, const std::string& text,
                     std::string* err);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_file;  ///< non-empty: traced run, spans written here
  bool self_test = false;  ///< corrupt one reference; the run must fail
  bool traced() const { return !trace_file.empty(); }
};

/// What one run reports.  Metrics keep insertion order; the final JSON
/// line and the human-readable lines both come from here.
struct RunResult {
  bool correct = true;
  std::string first_error;
  long attempted = 0;
  long failed = 0;
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::string note;  ///< sample count or ratio base, for the printed line
  };
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = {});
  /// Record a failed correctness check (the first one is kept for the
  /// message).  Every such failure makes the run exit non-zero.
  void wrong(const std::string& what);
};

/// The workloads.  An untraced run sets every end-to-end metric; a traced
/// run sets the per-layer metrics of the layers it exercises.
RunResult run_serve_small(const RunConfig& cfg);
RunResult run_serve_large(const RunConfig& cfg);
RunResult run_mgrid_solve(const RunConfig& cfg);
RunResult run_jacobi_large(const RunConfig& cfg);

}  // namespace e2e
