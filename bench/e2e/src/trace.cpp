#include "trace.hpp"

#include <algorithm>

#include "rt/obs/metrics_writer.hpp"

namespace e2e {

Tracer* g_tracer = nullptr;

std::uint32_t Tracer::open(const char* layer, const char* name,
                           std::int64_t req) {
  Span s;
  s.layer = layer;
  s.name = name;
  s.req = req;
  s.parent = open_.empty() ? 0 : open_.back();
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.start_ns = ns(Clock::now());
  spans_.push_back(s);
  open_.push_back(s.id);
  return s.id;
}

void Tracer::close(std::uint32_t id) {
  spans_[id - 1].end_ns = ns(Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::add_request(Clock::time_point start, Clock::time_point end,
                         std::int64_t req, double queue_ms, double solve_ms,
                         double total_ms) {
  Span s;
  s.layer = "serve";
  s.name = "request";
  s.req = req;
  s.async = true;
  s.parent = open_.empty() ? 0 : open_.back();
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.start_ns = ns(start);
  s.end_ns = ns(end);
  s.queue_ms = queue_ms;
  s.solve_ms = solve_ms;
  s.total_ms = total_ms;
  spans_.push_back(s);
}

std::map<std::string, Tracer::LayerTime> Tracer::layer_times() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size() + 1);
  for (const Span& s : spans_) kids[s.parent].push_back({s.start_ns, s.end_ns});
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans_) {
    // Self time: the span minus the union of its children's intervals
    // clipped to it (async children may overlap one another).
    std::vector<std::pair<std::int64_t, std::int64_t>>& c = kids[s.id];
    std::sort(c.begin(), c.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : c) {
      const std::int64_t lo = std::max(a, reach);
      const std::int64_t hi = std::min(b, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    const std::int64_t dur = s.end_ns - s.start_ns;
    LayerTime& lt = out[s.layer];
    ++lt.calls;
    lt.total_ms += static_cast<double>(dur) * 1e-6;
    lt.self_ms += static_cast<double>(dur - covered) * 1e-6;
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path, std::string* err) const {
  using rt::obs::JsonValue;
  JsonValue events = JsonValue::array();
  for (const Span& s : spans_) {
    JsonValue args = JsonValue::object();
    args.set("span", static_cast<long long>(s.id));
    args.set("parent", static_cast<long long>(s.parent));
    if (s.req >= 0) args.set("req", static_cast<long long>(s.req));
    if (s.queue_ms >= 0) args.set("queue_ms", s.queue_ms);
    if (s.solve_ms >= 0) args.set("solve_ms", s.solve_ms);
    if (s.total_ms >= 0) args.set("total_ms", s.total_ms);
    const std::string full = std::string(s.layer) + "." + s.name;
    const double begin_us = static_cast<double>(s.start_ns) * 1e-3;
    const double end_us = static_cast<double>(s.end_ns) * 1e-3;
    if (s.async) {
      // Requests overlap on one thread: nestable async begin/end pairs.
      JsonValue b = JsonValue::object();
      b.set("name", full).set("cat", s.layer).set("ph", "b");
      b.set("id", static_cast<long long>(s.id)).set("ts", begin_us);
      b.set("pid", 1).set("tid", 1).set("args", std::move(args));
      JsonValue e = JsonValue::object();
      e.set("name", full).set("cat", s.layer).set("ph", "e");
      e.set("id", static_cast<long long>(s.id)).set("ts", end_us);
      e.set("pid", 1).set("tid", 1);
      events.push_back(std::move(b));
      events.push_back(std::move(e));
      continue;
    }
    JsonValue x = JsonValue::object();
    x.set("name", full).set("cat", s.layer).set("ph", "X");
    x.set("ts", begin_us).set("dur", end_us - begin_us);
    x.set("pid", 1).set("tid", 1).set("args", std::move(args));
    events.push_back(std::move(x));
  }
  JsonValue layers = JsonValue::object();
  for (const auto& [layer, lt] : layer_times()) {
    JsonValue l = JsonValue::object();
    l.set("calls", lt.calls).set("total_ms", lt.total_ms);
    l.set("self_ms", lt.self_ms);
    layers.set(layer, std::move(l));
  }
  JsonValue other = JsonValue::object();
  other.set("layers", std::move(layers));
  JsonValue doc = JsonValue::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  doc.set("otherData", std::move(other));
  return write_text_file(path, doc.dump() + "\n", err);
}

}  // namespace e2e
