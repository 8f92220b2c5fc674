// rt::core::cache_topology — the shared sysfs cache probe.  Exercised
// against fake sysfs trees (the real tree differs per host, so only the
// probed/fallback invariants are checked there): full-level parsing with
// K/M suffixes, malformed-entry skipping, dense-enumeration cutoff, the
// unprobed fallback values, and the fingerprint rt::tune keys its durable
// plan store on.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "rt/core/cache_topology.hpp"
#include "tmpdir.hpp"

namespace fs = std::filesystem;
using rt::core::CacheTopology;
using rt::core::probe_cache_topology;

namespace {

class FakeSysfs {
 public:
  std::string root() const { return root_.path().string(); }

  void add_index(int idx, const std::string& type, const std::string& level,
                 const std::string& size, const std::string& ways = "",
                 const std::string& line = "",
                 const std::string& shared = "") {
    const fs::path dir = root_.path() / ("index" + std::to_string(idx));
    fs::create_directories(dir);
    write(dir / "type", type);
    if (!level.empty()) write(dir / "level", level);
    if (!size.empty()) write(dir / "size", size);
    if (!ways.empty()) write(dir / "ways_of_associativity", ways);
    if (!line.empty()) write(dir / "coherency_line_size", line);
    if (!shared.empty()) write(dir / "shared_cpu_map", shared);
  }

 private:
  static void write(const fs::path& p, const std::string& v) {
    std::ofstream f(p);
    f << v << "\n";
  }
  rt::test::TmpDir root_{"cache_topo"};
};

/// The canonical 3-level tree most x86 hosts expose: split L1, unified
/// L2/L3, instruction cache interleaved at index1.
FakeSysfs make_typical() {
  FakeSysfs t;
  t.add_index(0, "Data", "1", "32K", "8", "64", "00000001");
  t.add_index(1, "Instruction", "1", "32K", "8", "64", "00000001");
  t.add_index(2, "Unified", "2", "1024K", "16", "64", "00000001");
  t.add_index(3, "Unified", "3", "36M", "11", "64", "000000ff");
  return t;
}

}  // namespace

TEST(CacheTopology, ParsesAllLevelsOfATypicalTree) {
  const FakeSysfs t = make_typical();
  const CacheTopology topo = probe_cache_topology(t.root());
  ASSERT_TRUE(topo.probed);
  ASSERT_EQ(topo.levels.size(), 4u);

  EXPECT_EQ(topo.levels[0].type, 'D');
  EXPECT_EQ(topo.levels[0].level, 1);
  EXPECT_EQ(topo.levels[0].size_bytes, 32L * 1024);
  EXPECT_EQ(topo.levels[0].ways, 8);
  EXPECT_EQ(topo.levels[0].line_bytes, 64);
  EXPECT_EQ(topo.levels[0].shared_cpus, "00000001");

  EXPECT_EQ(topo.levels[1].type, 'I');
  EXPECT_EQ(topo.levels[2].type, 'U');
  EXPECT_EQ(topo.levels[2].size_bytes, 1024L * 1024);
  EXPECT_EQ(topo.levels[3].size_bytes, 36L * 1024 * 1024);
  EXPECT_EQ(topo.levels[3].ways, 11);
}

TEST(CacheTopology, OuterDataBytesIsLargestNonInstructionLevel) {
  const FakeSysfs t = make_typical();
  const CacheTopology topo = probe_cache_topology(t.root());
  EXPECT_EQ(topo.outer_data_bytes(), 36L * 1024 * 1024);
  EXPECT_EQ(topo.outer_data_elems(), 36L * 1024 * 1024 / 8);
  EXPECT_EQ(topo.line_bytes(), 64);
}

TEST(CacheTopology, DataBytesPerLevelSkipsInstructionCaches) {
  const FakeSysfs t = make_typical();
  const CacheTopology topo = probe_cache_topology(t.root());
  EXPECT_EQ(topo.data_bytes(1), 32L * 1024);  // L1D, not the L1I
  EXPECT_EQ(topo.data_bytes(2), 1024L * 1024);
  EXPECT_EQ(topo.data_bytes(3), 36L * 1024 * 1024);
  EXPECT_EQ(topo.data_bytes(4), 0);  // no such level
}

TEST(CacheTopology, FingerprintIsStableAndSkipsInstructionCaches) {
  const FakeSysfs t = make_typical();
  const CacheTopology topo = probe_cache_topology(t.root());
  EXPECT_EQ(topo.fingerprint(),
            "L1D:32768/8w/64B+L2U:1048576/16w/64B+L3U:37748736/11w/64B");
}

TEST(CacheTopology, FingerprintMarksUnknownFieldsWithQuestionMarks) {
  FakeSysfs t;
  t.add_index(0, "Data", "1", "16K");  // no ways / line size exposed
  const CacheTopology topo = probe_cache_topology(t.root());
  ASSERT_TRUE(topo.probed);
  EXPECT_EQ(topo.fingerprint(), "L1D:16384/?w/?B");
  EXPECT_EQ(topo.levels[0].ways, 0);
  EXPECT_EQ(topo.line_bytes(), 64);  // fallback
}

TEST(CacheTopology, MissingTreeFallsBackCleanly) {
  const CacheTopology topo =
      probe_cache_topology("/nonexistent/cache/tree/for/rt");
  EXPECT_FALSE(topo.probed);
  EXPECT_TRUE(topo.levels.empty());
  EXPECT_EQ(topo.outer_data_bytes(), 32L * 1024 * 1024);  // conservative
  EXPECT_EQ(topo.line_bytes(), 64);
  EXPECT_EQ(topo.data_bytes(2), 0);  // callers choose the fallback
  EXPECT_EQ(topo.fingerprint(), "unknown");
}

TEST(CacheTopology, MalformedEntriesAreSkippedNotFatal) {
  FakeSysfs t;
  t.add_index(0, "Data", "1", "32K", "8", "64");
  t.add_index(1, "Unified", "not-a-number", "1024K");  // bad level
  t.add_index(2, "Unified", "2", "12Q");               // bad size suffix
  t.add_index(3, "Unified", "3", "4M", "16", "64");
  const CacheTopology topo = probe_cache_topology(t.root());
  ASSERT_TRUE(topo.probed);
  ASSERT_EQ(topo.levels.size(), 2u);  // the two well-formed entries
  EXPECT_EQ(topo.levels[0].size_bytes, 32L * 1024);
  EXPECT_EQ(topo.levels[1].size_bytes, 4L * 1024 * 1024);
}

TEST(CacheTopology, EnumerationStopsAtFirstMissingIndex) {
  FakeSysfs t;
  t.add_index(0, "Data", "1", "32K");
  // index1 absent; index2 present but must not be reached (sysfs trees are
  // dense, so a gap means the enumeration is done).
  t.add_index(2, "Unified", "2", "1024K");
  const CacheTopology topo = probe_cache_topology(t.root());
  ASSERT_EQ(topo.levels.size(), 1u);
  EXPECT_EQ(topo.levels[0].size_bytes, 32L * 1024);
}

TEST(CacheTopology, HostProbeIsConsistentWhateverTheHost) {
  // The real host either has a parseable tree (probed, nonempty levels,
  // non-"unknown" fingerprint) or it does not (clean fallback) — both are
  // valid; what must hold is internal consistency and a positive capacity.
  const CacheTopology& topo = rt::core::host_cache_topology();
  EXPECT_GT(topo.outer_data_bytes(), 0);
  EXPECT_GT(topo.line_bytes(), 0);
  if (topo.probed) {
    EXPECT_FALSE(topo.levels.empty());
    EXPECT_NE(topo.fingerprint(), "unknown");
  } else {
    EXPECT_EQ(topo.fingerprint(), "unknown");
  }
  // Cached probe: repeated calls return the same object.
  EXPECT_EQ(&topo, &rt::core::host_cache_topology());
}
