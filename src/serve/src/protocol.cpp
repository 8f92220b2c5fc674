#include "rt/serve/protocol.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <limits>

#include "rt/guard/fault_injector.hpp"
#include "rt/simd/exec.hpp"

namespace rt::serve {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Read exactly @p n bytes; short count means EOF (or error with errno
/// set).  @p timed_out distinguishes an SO_RCVTIMEO expiry (EAGAIN /
/// EWOULDBLOCK) from a real transport error.
ssize_t read_full(int fd, char* buf, std::size_t n, bool* io_error,
                  bool* timed_out) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) break;  // EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      *timed_out = true;
    } else {
      *io_error = true;
    }
    break;
  }
  return static_cast<ssize_t>(got);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Fetch an integral field: absent → keep default; present but not an
/// integer-valued number or out of [lo, hi] → error.
bool take_int(const rt::obs::JsonValue& doc, const char* key, long long lo,
              long long hi, long long* out, std::string* detail) {
  const rt::obs::JsonValue* v = doc.find(key);
  if (!v) return true;
  if (!v->is_number()) {
    *detail = std::string("field '") + key + "' must be a number";
    return false;
  }
  const double d = v->as_double();
  // Range-check on the double first: casting an out-of-int64-range (or NaN)
  // double in as_int() would be UB.  9.0e18 < 2^63 so the cast below is safe.
  if (!(d >= -9.0e18 && d <= 9.0e18)) {
    *detail = std::string("field '") + key + "' out of range";
    return false;
  }
  const long long i = v->as_int();
  if (static_cast<double>(i) != d) {
    *detail = std::string("field '") + key + "' must be an integer";
    return false;
  }
  if (i < lo || i > hi) {
    *detail = std::string("field '") + key + "' out of range";
    return false;
  }
  *out = i;
  return true;
}

}  // namespace

const char* serve_kernel_name(ServeKernel k) {
  switch (k) {
    case ServeKernel::kJacobi:
      return "JACOBI";
    case ServeKernel::kRedBlack:
      return "REDBLACK";
    case ServeKernel::kResid:
      return "RESID";
    case ServeKernel::kMgrid:
      return "MGRID";
    case ServeKernel::kSor:
      return "SOR";
  }
  return "?";
}

bool parse_serve_kernel(const std::string& s, ServeKernel* out) {
  const std::string u = lower(s);
  for (ServeKernel k :
       {ServeKernel::kJacobi, ServeKernel::kRedBlack, ServeKernel::kResid,
        ServeKernel::kMgrid, ServeKernel::kSor}) {
    if (u == lower(serve_kernel_name(k))) {
      *out = k;
      return true;
    }
  }
  return false;
}

bool parse_transform_token(const std::string& s, rt::core::Transform* out) {
  const std::string u = lower(s);
  for (rt::core::Transform t :
       {rt::core::Transform::kOrig, rt::core::Transform::kTile,
        rt::core::Transform::kEuc3d, rt::core::Transform::kGcdPad,
        rt::core::Transform::kPad, rt::core::Transform::kGcdPadNT}) {
    if (u == lower(std::string(rt::core::transform_name(t)))) {
      *out = t;
      return true;
    }
  }
  return false;
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kSolve:
      return "solve";
    case Op::kPing:
      return "ping";
    case Op::kStats:
      return "stats";
    case Op::kHealth:
      return "health";
  }
  return "?";
}

rt::guard::Status parse_request(const rt::obs::JsonValue& doc, Request* out,
                                std::string* detail) {
  using rt::guard::Status;
  std::string local;
  std::string& why = detail ? *detail : local;
  if (!doc.is_object()) {
    why = "request must be a JSON object";
    return Status::kInvalidArgument;
  }
  Request req;

  long long id = req.id;
  if (!take_int(doc, "id", std::numeric_limits<std::int64_t>::min(),
                std::numeric_limits<std::int64_t>::max(), &id, &why)) {
    return Status::kInvalidArgument;
  }
  req.id = id;
  // Record the id even when a later field is rejected: the error response
  // must echo it so a pipelining client can match the rejection to its
  // request (a -1 echo would read as stream desync).
  out->id = id;

  if (const rt::obs::JsonValue* v = doc.find("op")) {
    if (!v->is_string()) {
      why = "field 'op' must be a string";
      return Status::kInvalidArgument;
    }
    const std::string o = lower(v->as_string());
    if (o == "solve") {
      req.op = Op::kSolve;
    } else if (o == "ping") {
      req.op = Op::kPing;
    } else if (o == "stats") {
      req.op = Op::kStats;
    } else if (o == "health") {
      req.op = Op::kHealth;
    } else {
      why = "unknown op '" + v->as_string() + "'";
      return Status::kInvalidArgument;
    }
  }

  long long deadline = 0;
  if (!take_int(doc, "deadline_ms", 0, 86'400'000, &deadline, &why)) {
    return Status::kInvalidArgument;
  }
  req.deadline_ms = static_cast<int>(deadline);

  if (req.op != Op::kSolve) {
    *out = req;
    return Status::kOk;
  }

  SolveParams& p = req.params;
  if (const rt::obs::JsonValue* v = doc.find("kernel")) {
    if (!v->is_string() || !parse_serve_kernel(v->as_string(), &p.kernel)) {
      why = "unknown kernel '" + v->as_string("<non-string>") + "'";
      return Status::kInvalidArgument;
    }
  } else {
    why = "solve request missing 'kernel'";
    return Status::kInvalidArgument;
  }

  // n/k limits: the lower bounds are what the stencils need (one interior
  // point); the upper bound only rejects values that could never be a real
  // grid — the *policy* cap (ServerOptions::max_n) is applied on admission.
  long long n = 0;
  if (!take_int(doc, "n", std::numeric_limits<long long>::min(),
                std::numeric_limits<long long>::max(), &n, &why)) {
    return Status::kInvalidArgument;
  }
  if (!doc.find("n")) {
    why = "solve request missing 'n'";
    return Status::kInvalidArgument;
  }
  if (n < 3) {
    why = "'n' must be >= 3";
    return Status::kInvalidArgument;
  }
  long long k = 0;
  if (!take_int(doc, "k", 3, std::numeric_limits<long long>::max(), &k, &why)) {
    return Status::kInvalidArgument;
  }
  p.n = static_cast<long>(std::min<long long>(n, std::numeric_limits<long>::max()));
  p.k = k > 0 ? static_cast<long>(std::min<long long>(
                    k, std::numeric_limits<long>::max()))
              : p.n;

  // The one check that must be overflow-aware: an n*n*k product that wraps
  // a long is kOverflow, reported before any allocation is attempted.
  const rt::array::Dims3 d = rt::array::Dims3::unpadded(p.n, p.n, p.k);
  if (!d.checked_alloc_elems()) {
    why = "n*n*k overflows the allocation index type";
    return Status::kOverflow;
  }

  long long tsteps = p.tsteps;
  if (!take_int(doc, "tsteps", 1, 1'000'000, &tsteps, &why)) {
    return Status::kInvalidArgument;
  }
  p.tsteps = static_cast<int>(tsteps);

  if (const rt::obs::JsonValue* v = doc.find("tol")) {
    if (!v->is_number() || !std::isfinite(v->as_double()) ||
        v->as_double() < 0) {
      why = "field 'tol' must be a finite non-negative number";
      return Status::kInvalidArgument;
    }
    p.tol = v->as_double();
  }

  if (const rt::obs::JsonValue* v = doc.find("transform")) {
    if (!v->is_string() ||
        !parse_transform_token(v->as_string(), &p.transform)) {
      why = "unknown transform '" + v->as_string("<non-string>") + "'";
      return Status::kInvalidArgument;
    }
  }

  long long seed = static_cast<long long>(p.seed);
  if (!take_int(doc, "seed", 0, std::numeric_limits<long long>::max(), &seed,
                &why)) {
    return Status::kInvalidArgument;
  }
  p.seed = static_cast<std::uint64_t>(seed);

  *out = req;
  return Status::kOk;
}

rt::guard::Status parse_request_text(const std::string& text, Request* out,
                                     std::string* detail) {
  rt::obs::JsonValue doc;
  std::string err;
  if (!rt::obs::json_parse(text, &doc, &err)) {
    if (detail) *detail = "bad JSON: " + err;
    return rt::guard::Status::kInvalidArgument;
  }
  return parse_request(doc, out, detail);
}

FrameResult read_frame(int fd, std::string* payload, std::string* detail) {
  unsigned char prefix[4];
  bool io_error = false;
  bool timed_out = false;
  ssize_t got = read_full(fd, reinterpret_cast<char*>(prefix), 4, &io_error,
                          &timed_out);
  if (timed_out) {
    if (detail) *detail = "recv timed out waiting for a frame";
    return FrameResult::kTimeout;
  }
  if (io_error) {
    if (detail) *detail = errno_text("read");
    return FrameResult::kError;
  }
  if (got == 0) return FrameResult::kEof;
  if (got < 4) {
    if (detail) *detail = "stream ended mid length-prefix";
    return FrameResult::kTruncated;
  }
  const std::uint32_t len = (static_cast<std::uint32_t>(prefix[0]) << 24) |
                            (static_cast<std::uint32_t>(prefix[1]) << 16) |
                            (static_cast<std::uint32_t>(prefix[2]) << 8) |
                            static_cast<std::uint32_t>(prefix[3]);
  if (len > kMaxFrameBytes) {
    if (detail) {
      *detail = "frame length " + std::to_string(len) + " exceeds cap " +
                std::to_string(kMaxFrameBytes);
    }
    return FrameResult::kOversized;
  }
  payload->resize(len);
  if (len == 0) return FrameResult::kOk;
  got = read_full(fd, payload->data(), len, &io_error, &timed_out);
  if (timed_out) {
    if (detail) *detail = "recv timed out mid payload";
    return FrameResult::kTimeout;
  }
  if (io_error) {
    if (detail) *detail = errno_text("read");
    return FrameResult::kError;
  }
  if (static_cast<std::uint32_t>(got) < len) {
    if (detail) *detail = "stream ended mid payload";
    return FrameResult::kTruncated;
  }
  return FrameResult::kOk;
}

rt::guard::Status write_frame(int fd, const std::string& payload,
                              std::string* detail) {
  if (payload.size() > kMaxFrameBytes) {
    if (detail) *detail = "payload exceeds frame cap";
    return rt::guard::Status::kInvalidArgument;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame.reserve(4 + payload.size());
  frame.push_back(static_cast<char>((len >> 24) & 0xff));
  frame.push_back(static_cast<char>((len >> 16) & 0xff));
  frame.push_back(static_cast<char>((len >> 8) & 0xff));
  frame.push_back(static_cast<char>(len & 0xff));
  frame += payload;

  // Chaos hooks: both fault kinds leave the wire in the torn state a real
  // crash would — a partial frame the peer can only resolve as kTruncated
  // (once the stream ends) or a timeout.  shutdown(), never close(): the
  // fd number stays owned by whoever opened it, so no double-close races.
  using rt::guard::FaultInjector;
  using rt::guard::FaultKind;
  if (FaultInjector::armed(FaultKind::kSockDrop) &&
      FaultInjector::instance().should_fail(FaultKind::kSockDrop)) {
    // Tear mid-prefix, then kill both directions immediately.
    (void)!::write(fd, frame.data(), 2);
    ::shutdown(fd, SHUT_RDWR);
    if (detail) *detail = "injected sockdrop: stream torn mid-frame";
    return rt::guard::Status::kIoError;
  }
  if (FaultInjector::armed(FaultKind::kPartialWrite) &&
      FaultInjector::instance().should_fail(FaultKind::kPartialWrite)) {
    // Write the prefix plus half the payload, then report failure without
    // closing: the short frame sits on the wire until the connection is
    // torn down, exactly like a writer that died mid-send.
    const std::size_t cut = 4 + payload.size() / 2;
    (void)!::write(fd, frame.data(), cut);
    if (detail) *detail = "injected partialwrite: short frame on the wire";
    return rt::guard::Status::kIoError;
  }

  return rt::obs::write_all_fd(fd, frame, detail);
}

rt::guard::Status set_nodelay(int fd, std::string* detail) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    if (detail) *detail = errno_text("setsockopt(TCP_NODELAY)");
    return rt::guard::Status::kIoError;
  }
  return rt::guard::Status::kOk;
}

std::uint64_t checksum_region(const rt::array::Array3D<double>& a,
                              rt::par::ThreadPool* pool) {
  // Integer arithmetic: every level gives the same value, so take the
  // widest.
  return rt::simd::checksum(
      rt::simd::Exec{pool, rt::simd::resolve(rt::simd::SimdMode::kAuto)}, a);
}

std::string checksum_hex(std::uint64_t h) {
  static const char* kHex = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kHex[h & 0xf];
    h >>= 4;
  }
  return s;
}

}  // namespace rt::serve
