#pragma once
// Host cache-topology probe (Linux sysfs), hoisted out of the benches so
// every consumer sees the same answer: rt::bench::outer_cache_elems() sizes
// the temporal plane window from it, and rt::tune keys its persistent plan
// store on the fingerprint — a tuned tile shape is only valid on the cache
// hierarchy it was measured on ("Model-Driven Automatic Tiling with Cache
// Associativity Lattices" shows the model's ranking inverts across hosts).
//
// The probe enumerates /sys/devices/system/cpu/cpu0/cache/index*/ and
// parses level / type / size / ways_of_associativity / coherency_line_size /
// shared_cpu_map.  It never throws and never fails the caller: on hosts
// without the sysfs tree (containers, non-Linux) it returns an explicit
// unprobed topology whose accessors fall back to conservative defaults,
// and whose fingerprint is the distinguished "unknown" token (a store
// written on such a host only matches other unknown-topology hosts).

#include <string>
#include <vector>

namespace rt::core {

/// One cache level as sysfs describes it (cpu0's view).
struct CacheLevelInfo {
  int level = 0;         ///< 1, 2, 3, ... (sysfs "level")
  char type = 'U';       ///< 'D' data, 'I' instruction, 'U' unified
  long size_bytes = 0;   ///< capacity ("size", K/M suffixes expanded)
  long line_bytes = 0;   ///< "coherency_line_size" (0 = not exposed)
  long ways = 0;         ///< "ways_of_associativity" (0 = not exposed)
  std::string shared_cpus;  ///< raw "shared_cpu_map" mask (may be empty)
};

struct CacheTopology {
  /// All parseable levels in index order (instruction caches included —
  /// consumers filter; the fingerprint and outer_data_bytes skip them).
  std::vector<CacheLevelInfo> levels;
  /// True when the sysfs tree existed and at least one level parsed.
  bool probed = false;

  /// Capacity of the outermost (largest) data or unified cache — the level
  /// a temporal plane window must stay resident in.  Falls back to 32MB
  /// when unprobed.
  long outer_data_bytes() const;
  /// Same, in doubles (the planners' element unit).
  long outer_data_elems() const { return outer_data_bytes() / 8; }
  /// Line size of the innermost data/unified level (64 when unknown).
  long line_bytes() const;
  /// Capacity of the data or unified cache at @p level (0 when sysfs
  /// reports none, e.g. unprobed) — the caller picks its own fallback.
  long data_bytes(int level) const;

  /// Stable host fingerprint over the data/unified levels, e.g.
  ///   "L1D:32768/8w/64B+L2U:1048576/16w/64B+L3U:33554432/16w/64B"
  /// ("?w" / "?B" for fields sysfs does not expose).  The distinguished
  /// token "unknown" when unprobed — rt::tune treats a store whose
  /// fingerprint differs from the host's as stale, never as wrong data.
  std::string fingerprint() const;
};

/// Probe a sysfs cache directory (index0/, index1/, ... under @p root).
/// @p root defaults to cpu0's real tree; tests point it at a fake tree.
CacheTopology probe_cache_topology(
    const std::string& root = "/sys/devices/system/cpu/cpu0/cache");

/// Process-wide cached probe of the real sysfs tree (the answer cannot
/// change mid-run; first call pays the file reads).
const CacheTopology& host_cache_topology();

}  // namespace rt::core
