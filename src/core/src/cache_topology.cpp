#include "rt/core/cache_topology.hpp"

#include <algorithm>
#include <fstream>

namespace rt::core {

namespace {

/// First whitespace-trimmed token of @p path, or "" when unreadable.
std::string read_token(const std::string& path) {
  std::ifstream in(path);
  std::string tok;
  if (!(in >> tok)) return {};
  return tok;
}

/// Parse a sysfs size string ("32K", "1024K", "36M", "512") into bytes;
/// -1 on anything malformed.
long parse_size_bytes(const std::string& s) {
  if (s.empty()) return -1;
  long v = 0;
  std::size_t pos = 0;
  try {
    v = std::stol(s, &pos);
  } catch (...) {
    return -1;
  }
  if (v < 0) return -1;
  if (pos == s.size()) return v;
  if (pos + 1 != s.size()) return -1;
  switch (s[pos]) {
    case 'K': case 'k': return v * 1024;
    case 'M': case 'm': return v * 1024 * 1024;
    case 'G': case 'g': return v * 1024 * 1024 * 1024;
    default: return -1;
  }
}

/// Plain non-negative integer ("ways_of_associativity", line size); 0 when
/// missing or malformed (both mean "not exposed" to consumers).
long parse_long_or_zero(const std::string& s) {
  if (s.empty()) return 0;
  try {
    std::size_t pos = 0;
    const long v = std::stol(s, &pos);
    return (pos == s.size() && v > 0) ? v : 0;
  } catch (...) {
    return 0;
  }
}

}  // namespace

CacheTopology probe_cache_topology(const std::string& root) {
  CacheTopology topo;
  for (int idx = 0; idx < 16; ++idx) {
    const std::string dir = root + "/index" + std::to_string(idx);
    const std::string type = read_token(dir + "/type");
    if (type.empty()) {
      // sysfs presents index directories densely; the first missing one
      // ends the enumeration (and index0 missing means no tree at all).
      break;
    }
    CacheLevelInfo lvl;
    lvl.type = type == "Data" ? 'D' : type == "Instruction" ? 'I' : 'U';
    lvl.level = static_cast<int>(parse_long_or_zero(read_token(dir + "/level")));
    lvl.size_bytes = parse_size_bytes(read_token(dir + "/size"));
    if (lvl.level <= 0 || lvl.size_bytes <= 0) continue;  // malformed entry
    lvl.line_bytes = parse_long_or_zero(read_token(dir + "/coherency_line_size"));
    lvl.ways = parse_long_or_zero(read_token(dir + "/ways_of_associativity"));
    lvl.shared_cpus = read_token(dir + "/shared_cpu_map");
    topo.levels.push_back(std::move(lvl));
  }
  topo.probed = !topo.levels.empty();
  return topo;
}

long CacheTopology::outer_data_bytes() const {
  long best = 0;
  for (const CacheLevelInfo& l : levels) {
    if (l.type == 'I') continue;
    best = std::max(best, l.size_bytes);
  }
  return best > 0 ? best : 32L * 1024 * 1024;
}

long CacheTopology::line_bytes() const {
  // Innermost data/unified level with a known line size.
  int best_level = 0;
  long line = 0;
  for (const CacheLevelInfo& l : levels) {
    if (l.type == 'I' || l.line_bytes <= 0) continue;
    if (best_level == 0 || l.level < best_level) {
      best_level = l.level;
      line = l.line_bytes;
    }
  }
  return line > 0 ? line : 64;
}

long CacheTopology::data_bytes(int level) const {
  for (const CacheLevelInfo& l : levels) {
    if (l.level == level && l.type != 'I') return l.size_bytes;
  }
  return 0;
}

std::string CacheTopology::fingerprint() const {
  if (!probed) return "unknown";
  // Stable order: (level, type) ascending, instruction caches excluded.
  std::vector<CacheLevelInfo> ls;
  for (const CacheLevelInfo& l : levels) {
    if (l.type != 'I') ls.push_back(l);
  }
  if (ls.empty()) return "unknown";
  std::sort(ls.begin(), ls.end(),
            [](const CacheLevelInfo& a, const CacheLevelInfo& b) {
              return a.level != b.level ? a.level < b.level : a.type < b.type;
            });
  std::string fp;
  for (const CacheLevelInfo& l : ls) {
    if (!fp.empty()) fp += '+';
    fp += 'L' + std::to_string(l.level) + l.type + ':' +
          std::to_string(l.size_bytes) + '/' +
          (l.ways > 0 ? std::to_string(l.ways) : "?") + "w/" +
          (l.line_bytes > 0 ? std::to_string(l.line_bytes) : "?") + 'B';
  }
  return fp;
}

const CacheTopology& host_cache_topology() {
  static const CacheTopology topo = probe_cache_topology();
  return topo;
}

}  // namespace rt::core
