#include "rt/simd/simd.hpp"

namespace rt::simd {

CpuFeatures host_cpu_features() {
#if defined(__x86_64__) || defined(__i386__)
  return {__builtin_cpu_supports("avx2") != 0,
          __builtin_cpu_supports("avx512f") != 0};
#else
  return {};
#endif
}

SimdLevel resolve(SimdMode mode, CpuFeatures cpu) {
  switch (mode) {
    case SimdMode::kOff:
      return SimdLevel::kScalar;
    case SimdMode::kAuto:
      if (cpu.avx512f) return SimdLevel::kAvx512;
      [[fallthrough]];
    case SimdMode::kAvx2:
      return cpu.avx2 ? SimdLevel::kAvx2 : SimdLevel::kRows;
  }
  return SimdLevel::kScalar;
}

SimdLevel resolve(SimdMode mode) { return resolve(mode, host_cpu_features()); }

SimdLevel exec_level(SimdMode mode, int threads) {
  if (mode == SimdMode::kOff && threads > 1) return SimdLevel::kRows;
  return resolve(mode);
}

const char* simd_mode_name(SimdMode m) {
  switch (m) {
    case SimdMode::kOff:
      return "off";
    case SimdMode::kAuto:
      return "auto";
    case SimdMode::kAvx2:
      return "avx2";
  }
  return "?";
}

const char* simd_level_name(SimdLevel l) {
  switch (l) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kRows:
      return "rows";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "?";
}

const char* stores_name(Stores s) {
  return s == Stores::kStream ? "stream" : "normal";
}

bool parse_simd_mode(const std::string& s, SimdMode* out) {
  if (s == "off") {
    *out = SimdMode::kOff;
  } else if (s == "auto") {
    *out = SimdMode::kAuto;
  } else if (s == "avx2") {
    *out = SimdMode::kAvx2;
  } else {
    return false;
  }
  return true;
}

}  // namespace rt::simd
