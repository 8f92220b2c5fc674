#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>

namespace e2e {

std::uint64_t Rng::next() {
  s_ += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = s_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  // Nearest rank: the smallest sample with at least q of the sample at or
  // below it.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool write_text_file(const std::string& path, const std::string& text,
                     std::string* err) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  f.close();
  if (!f) {
    *err = "cannot write " + path;
    return false;
  }
  return true;
}

void RunResult::set(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m = {name, value, unit, note};
      return;
    }
  }
  metrics.push_back({name, value, unit, note});
}

void RunResult::wrong(const std::string& what) {
  if (!correct) return;
  correct = false;
  first_error = what;
  std::cerr << "CHECK FAILED: " << what << "\n";
}

}  // namespace e2e
