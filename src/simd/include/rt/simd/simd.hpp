#pragma once
// SIMD fast-path policy layer: which instruction set the row-sweep kernels
// (rt/simd/row_kernels.hpp) run with.
//
// The layer exists because the accessor kernels execute every stencil
// point through scalar-looking load()/store() calls whose index math the
// compiler must rediscover per access; the row kernels hoist the
// i + p1*(j + p2*k) base out of the inner loop and hand the compiler
// contiguous restrict-qualified rows it can vectorize.  Vectorizing
// across I keeps each element's floating-point operation order unchanged,
// so every level below computes *bit-identical* results to the accessor
// kernels (tests/exec_test.cpp asserts it across a shape sweep).
//
// Mode (requested, a CLI-level knob) vs Level (resolved, what actually
// runs):
//   --simd=off   -> kScalar : accessor kernels, single-threaded only
//                   (exec_level: with threads > 1 it runs kRows)
//   --simd=auto  -> the widest level the CPU executes: kAvx512 with
//                   AVX-512F, else kAvx2 with AVX2, else kRows
//   --simd=avx2  -> kAvx2, falling back to kRows off-x86 / pre-AVX2
//                   (against auto, times both stamps on an AVX-512F host)
// kRows is portable C++ (restrict rows + `#pragma omp simd` hint, baseline
// ISA); kAvx2 and kAvx512 compile the same loops in target("avx2") and
// target("avx512f") clones picked at run time.

#include <string>


namespace rt::simd {

/// Requested SIMD behaviour (the --simd= flag).
enum class SimdMode {
  kOff,   ///< accessor kernels when single-threaded, else kRows
  kAuto,  ///< best level this host supports
  kAvx2,  ///< force the AVX2 path (falls back to kRows if unsupported)
};

/// Resolved execution level of the row kernels.
enum class SimdLevel {
  kScalar,  ///< not using row kernels at all
  kRows,    ///< row sweeps, baseline ISA auto-vectorization
  kAvx2,    ///< row sweeps compiled for AVX2, runtime-dispatched
  kAvx512,  ///< row sweeps compiled for AVX-512F, runtime-dispatched
};

/// How a row body writes its destination (the executor's store policy,
/// rt/simd/exec.hpp).  Either way the stored values are the same bits.
enum class Stores {
  kNormal,  ///< ordinary stores: each written line is first read into cache
  kStream,  ///< non-temporal stores for whole 64 B lines (write-around)
};

/// Doubles per 64-byte vector register line (AVX-512 width; also the
/// cache-line quantum, so it is the natural alignment unit either way).
inline constexpr long kVecDoubles = 8;

/// The instruction sets the row-sweep stamps need.
struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
};

/// What this CPU executes (nothing off x86).
CpuFeatures host_cpu_features();

/// Map a requested mode to the best level a CPU with @p cpu can execute.
SimdLevel resolve(SimdMode mode, CpuFeatures cpu);

/// resolve(mode, host_cpu_features()).
SimdLevel resolve(SimdMode mode);

/// The level a run with @p threads workers actually executes (what every
/// caller reports): resolve(mode), except that a multi-threaded --simd=off
/// run uses kRows — the accessor kernels (kScalar) run single-threaded only.
SimdLevel exec_level(SimdMode mode, int threads);

const char* simd_mode_name(SimdMode m);
const char* simd_level_name(SimdLevel l);
/// "normal" / "stream": the `stores` field of served responses and bench
/// records.
const char* stores_name(Stores s);

/// Parse "off" / "auto" / "avx2" (anything else returns false).
bool parse_simd_mode(const std::string& s, SimdMode* out);

}  // namespace rt::simd
