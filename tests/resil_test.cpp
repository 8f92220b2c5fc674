// rt::resil tests: RetryPolicy validation and deterministic backoff in
// isolation, then RetryingClient end-to-end against a real rt::serve
// Server — transport faults injected at the frame layer (sockdrop /
// partialwrite), typed overloaded retries paced by the server's
// retry_after_ms hint, fail-fast on deterministic rejections, and typed
// attempt/budget exhaustion against a dead port.
//
// The resilience claim under test is *bit-identity through failure*: a
// call that survived torn frames and reconnects must return exactly the
// checksum a clean call returns.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "rt/guard/fault_injector.hpp"
#include "rt/guard/status.hpp"
#include "rt/obs/metrics_writer.hpp"
#include "rt/resil/retry.hpp"
#include "rt/serve/client.hpp"
#include "rt/serve/server.hpp"

namespace rt::resil {
namespace {

using rt::guard::FaultInjector;
using rt::guard::FaultKind;
using rt::guard::Status;
using rt::obs::JsonValue;

class ResilFixture : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::instance().disarm_all(); }

  static rt::serve::ServerOptions base_options() {
    rt::serve::ServerOptions o;
    o.cs_elems = 2048;  // fixed planning cache size for determinism
    return o;
  }

  static JsonValue solve_req(long long id, long n, int tsteps = 1) {
    JsonValue r = JsonValue::object();
    r.set("id", id);
    r.set("op", "solve");
    r.set("kernel", "JACOBI");
    r.set("n", n);
    r.set("tsteps", tsteps);
    r.set("transform", "gcdpad");
    return r;
  }

  static std::string field(const JsonValue& doc, const std::string& key) {
    const JsonValue* v = doc.find(key);
    return v ? v->as_string() : std::string();
  }

  /// The clean-path checksum for @p req: a plain client, no faults.
  static std::string clean_checksum(rt::serve::Server& server,
                                    const JsonValue& req) {
    rt::guard::Expected<rt::serve::Client> c =
        rt::serve::Client::connect(server.port());
    EXPECT_TRUE(c.ok()) << c.detail();
    rt::guard::Expected<JsonValue> r = c.value().call(req);
    EXPECT_TRUE(r.ok()) << r.detail();
    EXPECT_EQ(field(r.value(), "status"), "ok");
    return field(r.value(), "checksum");
  }
};

TEST_F(ResilFixture, PolicyValidationCatchesEveryBadField) {
  std::string why;
  EXPECT_EQ(RetryPolicy{}.validate(&why), Status::kOk) << why;

  RetryPolicy p;
  p.max_attempts = 0;
  EXPECT_EQ(p.validate(&why), Status::kInvalidArgument);
  EXPECT_NE(why.find("max_attempts"), std::string::npos);

  p = RetryPolicy{};
  p.base_backoff_ms = -1;
  EXPECT_EQ(p.validate(&why), Status::kInvalidArgument);
  EXPECT_NE(why.find("base_backoff_ms"), std::string::npos);

  p = RetryPolicy{};
  p.base_backoff_ms = 100;
  p.max_backoff_ms = 50;  // bounds out of order
  EXPECT_EQ(p.validate(&why), Status::kInvalidArgument);
  EXPECT_NE(why.find("max_backoff_ms"), std::string::npos);

  p = RetryPolicy{};
  p.jitter = 1.5;
  EXPECT_EQ(p.validate(&why), Status::kInvalidArgument);
  p.jitter = -0.1;
  EXPECT_EQ(p.validate(&why), Status::kInvalidArgument);

  p = RetryPolicy{};
  p.budget_ms = -1;
  EXPECT_EQ(p.validate(&why), Status::kInvalidArgument);

  p = RetryPolicy{};
  p.recv_timeout_ms = -5;
  EXPECT_EQ(p.validate(&why), Status::kInvalidArgument);

  // Zero budget is *unlimited* at the policy level, not a contradiction
  // (the bench flag layer is the strict one).
  p = RetryPolicy{};
  p.budget_ms = 0;
  EXPECT_EQ(p.validate(&why), Status::kOk) << why;
}

TEST_F(ResilFixture, BackoffIsDeterministicBoundedAndClamped) {
  RetryPolicy p;
  p.base_backoff_ms = 10;
  p.max_backoff_ms = 200;
  p.jitter = 0.5;

  for (int ordinal = 1; ordinal <= 12; ++ordinal) {
    for (std::uint64_t stream = 0; stream < 4; ++stream) {
      const int a = p.backoff_ms(ordinal, stream);
      const int b = p.backoff_ms(ordinal, stream);
      EXPECT_EQ(a, b) << "non-deterministic at ordinal " << ordinal;
      // Bounded by the un-jittered exponential curve from below and above.
      long long exp = static_cast<long long>(p.base_backoff_ms)
                      << std::min(ordinal - 1, 30);
      exp = std::min<long long>(exp, p.max_backoff_ms);
      EXPECT_LE(a, exp);
      EXPECT_GE(a, static_cast<int>(static_cast<double>(exp) *
                                    (1.0 - p.jitter)) -
                       1);
    }
  }
  // Deep ordinals clamp at max_backoff_ms, jitter still applies.
  const int deep = p.backoff_ms(1000, 7);
  EXPECT_LE(deep, 200);
  EXPECT_GE(deep, 99);

  // Jitter off: the schedule is exactly the clamped exponential.
  p.jitter = 0.0;
  EXPECT_EQ(p.backoff_ms(1, 0), 10);
  EXPECT_EQ(p.backoff_ms(2, 0), 20);
  EXPECT_EQ(p.backoff_ms(3, 0), 40);
  EXPECT_EQ(p.backoff_ms(9, 0), 200);  // 10 * 2^8 = 2560 -> clamp

  // Distinct seeds give distinct schedules (the chaos soak's on/off arms
  // must not accidentally share one).
  RetryPolicy q = p;
  q.jitter = 0.9;
  RetryPolicy r = q;
  r.seed = 0x1234;
  bool any_diff = false;
  for (int k = 1; k <= 8 && !any_diff; ++k) {
    any_diff = q.backoff_ms(k, 0) != r.backoff_ms(k, 0);
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(ResilFixture, InvalidPolicyIsReplacedByDefaultAndReported) {
  RetryPolicy bad;
  bad.max_attempts = -3;
  RetryingClient rc(1, bad);
  EXPECT_EQ(rc.policy_status(), Status::kInvalidArgument);
  EXPECT_NE(rc.policy_detail().find("max_attempts"), std::string::npos);
  EXPECT_EQ(rc.policy().max_attempts, RetryPolicy{}.max_attempts);
}

TEST_F(ResilFixture, CleanCallNeedsNoRetryAndMatchesPlainClient) {
  rt::serve::Server server(base_options());
  ASSERT_EQ(server.start(), Status::kOk);
  const JsonValue req = solve_req(7, 20, 2);
  const std::string want = clean_checksum(server, req);
  ASSERT_FALSE(want.empty());

  RetryingClient rc(server.port());
  rt::guard::Expected<JsonValue> r = rc.call(req);
  ASSERT_TRUE(r.ok()) << r.detail();
  EXPECT_EQ(field(r.value(), "status"), "ok");
  EXPECT_EQ(field(r.value(), "checksum"), want);
  EXPECT_EQ(rc.stats().calls, 1u);
  EXPECT_EQ(rc.stats().attempts, 1u);
  EXPECT_EQ(rc.stats().retries, 0u);
  EXPECT_EQ(rc.stats().reconnects, 0u);
  server.stop();
}

TEST_F(ResilFixture, SockDropOnResponseRetriesOnFreshConnectionBitIdentical) {
  rt::serve::Server server(base_options());
  ASSERT_EQ(server.start(), Status::kOk);
  const JsonValue req = solve_req(8, 20, 2);
  const std::string want = clean_checksum(server, req);

  RetryPolicy p;
  p.base_backoff_ms = 1;
  p.max_backoff_ms = 5;
  RetryingClient rc(server.port(), p);
  // Triggers on write_frame: the client's send is trigger 0, the server's
  // response is trigger 1 — tear the response mid-frame.
  FaultInjector::instance().arm(FaultKind::kSockDrop, 1, 1);
  rt::guard::Expected<JsonValue> r = rc.call(req);
  ASSERT_TRUE(r.ok()) << r.detail();
  EXPECT_EQ(field(r.value(), "status"), "ok");
  EXPECT_EQ(field(r.value(), "checksum"), want);
  EXPECT_GE(rc.stats().transport_retries, 1u);
  EXPECT_GE(rc.stats().reconnects, 1u);
  EXPECT_EQ(rc.stats().calls, 1u);
  server.stop();
}

TEST_F(ResilFixture, SockDropOnOwnSendRetriesBitIdentical) {
  rt::serve::Server server(base_options());
  ASSERT_EQ(server.start(), Status::kOk);
  const JsonValue req = solve_req(9, 16, 1);
  const std::string want = clean_checksum(server, req);

  RetryPolicy p;
  p.base_backoff_ms = 1;
  p.max_backoff_ms = 5;
  RetryingClient rc(server.port(), p);
  // Trigger 0 is the retrying client's own send: the frame is torn before
  // it ever reaches the server.
  FaultInjector::instance().arm(FaultKind::kSockDrop, 0, 1);
  rt::guard::Expected<JsonValue> r = rc.call(req);
  ASSERT_TRUE(r.ok()) << r.detail();
  EXPECT_EQ(field(r.value(), "checksum"), want);
  EXPECT_GE(rc.stats().transport_retries, 1u);
  server.stop();
}

TEST_F(ResilFixture, PartialWriteOnResponseRetriesBitIdentical) {
  rt::serve::Server server(base_options());
  ASSERT_EQ(server.start(), Status::kOk);
  const JsonValue req = solve_req(10, 20, 2);
  const std::string want = clean_checksum(server, req);

  RetryPolicy p;
  p.base_backoff_ms = 1;
  p.max_backoff_ms = 5;
  RetryingClient rc(server.port(), p);
  FaultInjector::instance().arm(FaultKind::kPartialWrite, 1, 1);
  rt::guard::Expected<JsonValue> r = rc.call(req);
  ASSERT_TRUE(r.ok()) << r.detail();
  EXPECT_EQ(field(r.value(), "checksum"), want);
  EXPECT_GE(rc.stats().transport_retries, 1u);
  server.stop();
}

TEST_F(ResilFixture, OverloadedResponseRetriedAndPacedByServerHint) {
  rt::serve::ServerOptions opts = base_options();
  opts.executors = 1;
  opts.batching = false;
  opts.queue_depth = 1;
  opts.retry_after_ms = 40;
  rt::serve::Server server(opts);
  ASSERT_EQ(server.start(), Status::kOk);

  // Wedge the only executor and fill the 1-deep queue, so the retrying
  // client's first attempt is rejected "overloaded" with the 40 ms hint.
  rt::guard::Expected<rt::serve::Client> filler =
      rt::serve::Client::connect(server.port());
  ASSERT_TRUE(filler.ok());
  FaultInjector::instance().arm(FaultKind::kHang, 0, 1);
  ASSERT_EQ(filler.value().send(solve_req(1, 12, 1)), Status::kOk);
  bool wedged = false;
  for (int i = 0; i < 500 && !wedged; ++i) {
    wedged = FaultInjector::instance().fired(FaultKind::kHang) >= 1;
    if (!wedged) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(wedged);
  ASSERT_EQ(filler.value().send(solve_req(2, 12, 1)), Status::kOk);
  // The queue is full only once the second solve is admitted; until then
  // the retrying client's request could take the slot instead.
  bool full = false;
  for (int i = 0; i < 500 && !full; ++i) {
    full = server.stats_json().find("admitted")->as_int() >= 2;
    if (!full) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(full);

  // Release the wedge shortly after the retrying client's first rejection:
  // the queue drains and a later attempt succeeds.
  std::thread releaser([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    FaultInjector::instance().cancel_hangs();
  });

  RetryPolicy p;
  p.max_attempts = 20;
  p.base_backoff_ms = 5;
  p.max_backoff_ms = 20;
  p.budget_ms = 10'000;
  RetryingClient rc(server.port(), p);
  const JsonValue req = solve_req(30, 16, 1);
  rt::guard::Expected<JsonValue> r = rc.call(req);
  releaser.join();
  ASSERT_TRUE(r.ok()) << r.detail();
  ASSERT_EQ(field(r.value(), "status"), "ok") << field(r.value(), "detail");
  EXPECT_GE(rc.stats().overloaded_retries, 1u);
  // The 40 ms hint beats the 5..20 ms backoff curve at least once.
  EXPECT_GE(rc.stats().retry_after_waits, 1u);
  EXPECT_EQ(field(r.value(), "checksum"), clean_checksum(server, req));

  // The filler's two queued solves complete too (watchdogless wedge is
  // cooperative: cancel_hangs let them finish).
  for (int i = 0; i < 2; ++i) {
    JsonValue resp;
    std::string why;
    ASSERT_EQ(filler.value().recv(&resp, &why), Status::kOk) << why;
    EXPECT_EQ(field(resp, "status"), "ok");
  }
  server.stop();
}

TEST_F(ResilFixture, DeterministicRejectionIsReturnedNotRetried) {
  rt::serve::Server server(base_options());
  ASSERT_EQ(server.start(), Status::kOk);
  RetryingClient rc(server.port());

  JsonValue req = JsonValue::object();
  req.set("id", 11);
  req.set("op", "solve");
  req.set("kernel", "NO_SUCH_KERNEL");
  req.set("n", 12);
  req.set("tsteps", 1);
  rt::guard::Expected<JsonValue> r = rc.call(req);
  ASSERT_TRUE(r.ok()) << r.detail();  // transported fine; rejected typed
  EXPECT_EQ(field(r.value(), "status"), "invalid_argument");
  EXPECT_EQ(rc.stats().attempts, 1u);  // fail fast: no retry spent on it
  EXPECT_EQ(rc.stats().retries, 0u);
  server.stop();
}

TEST_F(ResilFixture, AttemptsExhaustionAgainstDeadPortIsTyped) {
  // Grab an ephemeral port with a real server, then stop it: connects are
  // refused immediately (loopback), so every attempt fails fast.
  int port = 0;
  {
    rt::serve::Server server(base_options());
    ASSERT_EQ(server.start(), Status::kOk);
    port = server.port();
    server.stop();
  }

  RetryPolicy p;
  p.max_attempts = 3;
  p.base_backoff_ms = 1;
  p.max_backoff_ms = 2;
  p.budget_ms = 10'000;
  RetryingClient rc(port, p);
  rt::guard::Expected<JsonValue> r = rc.call(solve_req(12, 12, 1));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.detail().find("3 attempts exhausted"), std::string::npos)
      << r.detail();
  EXPECT_EQ(rc.stats().gave_up, 1u);
  EXPECT_EQ(rc.stats().attempts, 3u);
  EXPECT_EQ(rc.stats().retries, 2u);
}

TEST_F(ResilFixture, BudgetExhaustionAgainstDeadPortIsTyped) {
  int port = 0;
  {
    rt::serve::Server server(base_options());
    ASSERT_EQ(server.start(), Status::kOk);
    port = server.port();
    server.stop();
  }

  RetryPolicy p;
  p.max_attempts = 1000;
  p.base_backoff_ms = 30;
  p.max_backoff_ms = 30;
  p.jitter = 0.0;  // exact 30 ms steps: the budget dies long before 1000
  p.budget_ms = 70;
  RetryingClient rc(port, p);
  rt::guard::Expected<JsonValue> r = rc.call(solve_req(13, 12, 1));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.detail().find("retry budget"), std::string::npos) << r.detail();
  EXPECT_EQ(rc.stats().budget_exhausted, 1u);
  EXPECT_LT(rc.stats().attempts, 10u);  // nowhere near max_attempts
}

}  // namespace
}  // namespace rt::resil
