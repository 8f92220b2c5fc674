#pragma once
// Spans rt_e2e records around every call it makes into a layer's
// public functions (rt::serve, rt::core, rt::multigrid, rt::kernels, ...).
// Nothing inside src/ is instrumented: a span covers one call rt_e2e makes,
// and a layer's self time is its spans' time minus the part their child
// spans cover.
//
// Spans stay in memory and are written at exit as Chrome trace-event JSON
// (chrome://tracing, ui.perfetto.dev).  Untraced runs have no Tracer, so
// a Scope costs one null check unless it also feeds a sample.
//
// The Tracer is single-threaded: every span is opened and closed on the
// main thread (the load generator runs on that thread too), never from
// a pool task or a server thread.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace e2e {

struct Span {
  const char* layer = "";  ///< module name: serve, core, multigrid, ...
  const char* name = "";   ///< the entry point called
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;      ///< 1-based
  std::uint32_t parent = 0;  ///< 0 = root
  std::int64_t req = -1;     ///< request id, -1 when not one request's
  bool async = false;        ///< timed by the caller; may overlap siblings
  /// Server-reported timings (request spans only; negative = absent).
  double queue_ms = -1, solve_ms = -1, total_ms = -1;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Open a span; it nests under the innermost open span.
  std::uint32_t open(const char* layer, const char* name, std::int64_t req);
  void close(std::uint32_t id);

  /// A span the caller timed itself: a request from its scheduled send
  /// time to its response, carrying the server-reported timings (negative
  /// = absent).  Parented to the innermost open span.
  void add_request(Clock::time_point start, Clock::time_point end,
                   std::int64_t req, double queue_ms, double solve_ms,
                   double total_ms);

  struct LayerTime {
    long calls = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  /// Calls, span time and self time per layer.
  std::map<std::string, LayerTime> layer_times() const;

  /// Write every span as Chrome trace-event JSON, with layer_times() under
  /// "otherData".  False (and @p err set) when the file cannot be written.
  bool write_chrome(const std::string& path, std::string* err) const;

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< ids of the open spans, innermost last
};

/// The run's tracer; null in an untraced run.
extern Tracer* g_tracer;

/// RAII span around one call rt_e2e makes into a layer.  With @p sample_ms set,
/// the call's duration (ms) is also appended there, traced or not, so a
/// per-layer metric and its span cover the same interval.
class Scope {
 public:
  explicit Scope(const char* layer, const char* name,
                 std::vector<double>* sample_ms = nullptr,
                 std::int64_t req = -1)
      : sample_ms_(sample_ms) {
    if (g_tracer != nullptr) id_ = g_tracer->open(layer, name, req);
    if (sample_ms_ != nullptr) t0_ = Clock::now();
  }
  ~Scope() {
    if (sample_ms_ != nullptr) sample_ms_->push_back(ms_between(t0_, Clock::now()));
    if (id_ != 0) g_tracer->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::vector<double>* sample_ms_;
  Clock::time_point t0_{};
  std::uint32_t id_ = 0;
};

}  // namespace e2e
