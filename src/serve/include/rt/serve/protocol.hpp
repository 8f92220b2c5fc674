#pragma once
// Wire protocol of the rt::serve solve server: length-prefixed JSON frames
// over a byte stream.  A frame is a 4-byte big-endian payload length
// followed by exactly that many bytes of JSON, parsed with the strict
// rt::obs::json_parse (the same reader the rt::tune plan store trusts for
// durable state — truncated or trailing-garbage documents are rejected,
// never half-parsed).
//
// Hostile-input contract (tested in tests/serve_test.cpp): every malformed
// input — truncated length prefix, oversized length, bad JSON, unknown
// kernel, overflowing N — produces a *typed* error response (or a clean
// close when no response channel is left), never a crash, a hang, or a
// leaked connection.
//
// Request document (op "solve"):
//   {"id": 7, "op": "solve", "kernel": "JACOBI", "n": 48, "k": 48,
//    "tsteps": 2, "tol": 0.0, "transform": "gcdpad", "deadline_ms": 250,
//    "seed": 42}
// `id` is echoed in the response (default -1), `op` defaults to "solve"
// (also: "ping", "stats", "health"), `k` defaults to n (cubic), `tol` > 0
// turns the
// MGRID/SOR apps into convergence-driven solves, `deadline_ms` > 0 runs
// the solve under rt::guard::run_with_deadline.
//
// Response document:
//   {"id": 7, "op": "solve", "status": "ok", "detail": "", "kernel": ...,
//    "plan": {"transform": "GcdPad", "backend": "model",
//             "schedule": "tiled", ...},
//    "plan_status": "ok", "simd": "avx512", "threads": 2,
//    "checksum": "a41c07e95d3b2f68", "iters": 2, "residual": 0.0,
//    "batch_size": 3, "shared": false,
//    "queue_ms": 0.1, "solve_ms": 2.4, "total_ms": 2.7,
//    "timing": {"parse_ms": 0.01, "queue_ms": 0.1, "plan_ms": 0.002,
//               "arena_ms": 0.003, "group_ms": 0.8, "init_ms": 0.2,
//               "sweep_ms": 0.4, "checksum_ms": 0.2}}
// `status` is a stable rt::guard token ("ok", "invalid_argument",
// "overloaded", "timeout", ...); `checksum` is checksum_region of the
// result grid (a sum of keyed per-point mixes over its logical region,
// see below), the bit-identity witness the tests and the e2e benchmark
// compare against the batch-binary solve paths.  Checksum values are
// comparable only between servers of the same version: the definition
// has changed twice, each time changing every served value (a 4-lane
// word hash replaced a byte-wise FNV-1a, then the keyed sum replaced the
// lanes so that partials compose).  `simd` and
// `threads` are the row-kernel level and solver threads that ran;
// `timing` splits the request's time into stages (group_ms is this
// member's own dedup group; init/sweep/checksum are inside it).
//
// Transport: both ends set TCP_NODELAY (set_nodelay below).  A frame is
// one write, so a response goes out as soon as it is written instead of
// waiting for the peer's delayed ACK of the previous segment.

#include <cstdint>
#include <string>

#include "rt/array/array3d.hpp"
#include "rt/core/plan.hpp"
#include "rt/guard/status.hpp"
#include "rt/obs/metrics_writer.hpp"
#include "rt/par/thread_pool.hpp"

namespace rt::serve {

/// Hard cap on one frame's payload: a hostile 4 GB length prefix must be
/// rejected before any allocation happens.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// The workloads the server can run: the three paper kernels plus the two
/// whole applications built on them.
enum class ServeKernel { kJacobi, kRedBlack, kResid, kMgrid, kSor };

/// Stable request token ("JACOBI", "REDBLACK", "RESID", "MGRID", "SOR").
const char* serve_kernel_name(ServeKernel k);
bool parse_serve_kernel(const std::string& s, ServeKernel* out);

/// Lower-case transform token ("orig", "tile", "euc3d", "gcdpad", "pad",
/// "gcdpadnt") to rt::core::Transform; also accepts the display names
/// rt::core::transform_name emits.
bool parse_transform_token(const std::string& s, rt::core::Transform* out);

enum class Op { kSolve, kPing, kStats, kHealth };
const char* op_name(Op op);

/// Everything that determines a solve's *result bits*.  Two requests with
/// equal SolveParams produce bit-identical grids, which is what lets the
/// batcher compute a deduplicated group once and share the outcome.
struct SolveParams {
  ServeKernel kernel = ServeKernel::kJacobi;
  long n = 0;       ///< grid points per side (MGRID: must be 2^l + 2)
  long k = 0;       ///< third dimension (kernel paths; 0 = n, cubic)
  int tsteps = 2;   ///< sweeps / iterations (apps: iteration cap)
  double tol = 0;   ///< > 0: convergence target for MGRID/SOR residual
  rt::core::Transform transform = rt::core::Transform::kGcdPad;
  std::uint64_t seed = 42;  ///< charge-placement seed (MGRID/SOR)
  friend bool operator==(const SolveParams&, const SolveParams&) = default;
};

struct Request {
  std::int64_t id = -1;
  Op op = Op::kSolve;
  SolveParams params;
  int deadline_ms = 0;  ///< 0 = no per-request deadline
};

/// Parse + validate one request document.  kOk fills @p out; otherwise the
/// typed reason (kInvalidArgument for unknown kernels / mistyped fields /
/// out-of-range values, kOverflow when n*n*k cannot be represented) with a
/// one-line @p detail.  On failure @p out->id still carries the request's
/// id when it parsed before the rejection, so error responses can echo it
/// (pipelining clients match responses to requests by id).  Limits that
/// are *server policy* (max n, queue depth) are enforced by the server,
/// not here.
rt::guard::Status parse_request(const rt::obs::JsonValue& doc, Request* out,
                                std::string* detail);

/// json_parse + parse_request over raw payload text.
rt::guard::Status parse_request_text(const std::string& text, Request* out,
                                     std::string* detail);

/// Read one frame from @p fd into @p payload.
enum class FrameResult {
  kOk,
  kEof,        ///< clean close before any prefix byte
  kTruncated,  ///< stream ended mid-prefix or mid-payload
  kOversized,  ///< prefix length exceeds kMaxFrameBytes (payload unread)
  kError,      ///< recv failed (errno text in detail)
  kTimeout,    ///< an SO_RCVTIMEO deadline expired mid-read; after a
               ///< timeout the stream position is unknown — the caller
               ///< must treat the connection as unsynced and hang up
};
FrameResult read_frame(int fd, std::string* payload,
                       std::string* detail = nullptr);

/// Write one frame (prefix + payload).  kOk, kTimeout (an SO_SNDTIMEO
/// send deadline expired mid-frame — connection unsynced), or kIoError
/// (short write, closed peer — with SIGPIPE ignored this is EPIPE, not
/// process death).  This is the chaos-injection choke point for both
/// directions of the wire: rt::guard kSockDrop tears the stream after a
/// torn prefix, kPartialWrite leaves a short frame behind (the reader
/// sees kTruncated once the writer hangs up).
rt::guard::Status write_frame(int fd, const std::string& payload,
                              std::string* detail = nullptr);

/// Set TCP_NODELAY on a connected TCP socket: every frame leaves the host
/// as soon as write_frame() hands it over, instead of waiting behind an
/// unacknowledged segment for the peer's delayed ACK.  Both ends of every
/// rt::serve connection call this (Server on each accepted fd, Client on
/// each connect).  kOk, or kIoError with the setsockopt errno text.
rt::guard::Status set_nodelay(int fd, std::string* detail = nullptr);

/// Bit-exact witness of a solve result: rt::simd::checksum, the sum mod
/// 2^64 over every point of the *logical* region (padding excluded — two
/// plans with different pads must hash equal when the answers are equal)
/// of (rotl(w, 1) ^ key) * key, w the value's 64-bit pattern and key an
/// odd function of the point's (i, j, k).  Changing any single element
/// changes the value; partials over any split of the grid add up to it,
/// so it is the same inline and for every @p pool width (nullptr = hash
/// inline on the calling thread), and a served JACOBI solve computes it
/// inside its last step (run_solve) instead of reading the grid again.
/// Values are comparable only between servers of the same version.
std::uint64_t checksum_region(const rt::array::Array3D<double>& a,
                              rt::par::ThreadPool* pool = nullptr);

/// 16-hex-digit form used on the wire (JSON integers are signed 64-bit;
/// a hash is not).
std::string checksum_hex(std::uint64_t h);

}  // namespace rt::serve
