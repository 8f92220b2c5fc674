// serve-small and serve-large: an in-process rt::serve::Server driven over
// loopback by one load-generator thread on two connections (poll-driven).
//
// Each run warms the server with one request per distinct card of its mix
// (plans cached, arena filled, as on a long-running server), then runs
// three rungs.  `sat` is closed loop, 2 connections x 4 in flight, and
// measures capacity.  `light` and `heavy` follow it without a gap, open
// loop at a fixed rate, each request timed from its *scheduled* send time,
// so a stall also charges the requests queued behind it.  On serve-small
// a stats op and a health op go out every 50 ms during the open-loop rungs.
//
// The connections are plain rt::serve::Client sockets, as every client of
// the server uses: Nagle's algorithm on at both ends, delayed acks at the
// client.  A connection that once has two responses unacknowledged stays,
// while its requests come less than the 40 ms delayed-ack timer apart, in
// a state where each response waits for the client's next request.  Any
// stall of the server puts a connection there, so when `sat` ran last,
// whether and when the open-loop rungs entered the state differed from run
// to run (serve-small's heavy p95 read 3.6 or 10 ms).  `sat` pipelines, so
// running it first puts both connections in that state every run.
//
// Every response is checked against the serial reference for its
// parameters: checksum, iteration count and residual, bit for bit.

#include <poll.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "reference.hpp"
#include "rt/serve/arena.hpp"
#include "rt/serve/client.hpp"
#include "rt/serve/server.hpp"
#include "rt/serve/solve.hpp"
#include "trace.hpp"

namespace e2e {

namespace {

using rt::guard::Status;
using rt::obs::JsonValue;
using rt::serve::Client;
using rt::serve::ServeKernel;
using rt::serve::SolveParams;
using Transform = rt::core::Transform;
using References = std::map<std::string, Reference>;

enum Rung { kLight, kHeavy, kSat };
constexpr int kConns = 2;
constexpr int kSatInFlight = 4;    // per connection
constexpr double kCtlPeriodS = 0.05;
constexpr int kSetups = 100;       // server start + connects, median
constexpr double kDrainLimitS = 60;  // responses still missing after this fail the run

bool is_app(ServeKernel k) {
  return k == ServeKernel::kMgrid || k == ServeKernel::kSor;
}

/// Reference lookup key: everything that determines a result's bits
/// (transform does not).
std::string ref_key(const SolveParams& p) {
  std::string key = std::string(rt::serve::serve_kernel_name(p.kernel)) + "/" +
                    std::to_string(p.n) + "/" + std::to_string(p.tsteps);
  if (is_app(p.kernel)) {
    key += '/';
    key += std::to_string(p.seed);
  }
  return key;
}

/// A workload's frozen traffic: rates, rung lengths, and the request mix
/// as a deck of cards.
struct Traffic {
  double light_rps;
  double heavy_rps;
  double light_share;  ///< of the run's seconds; sat comes first, heavy last
  double heavy_share;
  double tail_q;       ///< heavy-rung percentile reported as lat_tail_ms
  double limit_ms;     ///< latency limit that percentile should meet
  bool monitor;        ///< a stats and a health op every kCtlPeriodS
  std::vector<SolveParams> deck;
};

/// Deals a Traffic deck in a seeded shuffled order, reshuffling when it
/// runs out, so every seed sends nearly the same multiset of requests in
/// any window.
class Dealer {
 public:
  Dealer(const std::vector<SolveParams>& deck, std::uint64_t seed,
         std::uint64_t stream)
      : rng_(seed, stream), cards_(deck), pos_(cards_.size()) {}

  const SolveParams& next() {
    if (pos_ == cards_.size()) {
      for (std::size_t i = cards_.size(); i > 1; --i) {
        std::swap(cards_[i - 1],
                  cards_[static_cast<std::size_t>(rng_.below(static_cast<long>(i)))]);
      }
      pos_ = 0;
    }
    return cards_[pos_++];
  }

 private:
  Rng rng_;
  std::vector<SolveParams> cards_;
  std::size_t pos_;  ///< next card; cards_.size() = shuffle before dealing
};

SolveParams kernel_card(ServeKernel k, long n, int tsteps, Transform t) {
  SolveParams p;
  p.kernel = k;
  p.n = n;
  p.tsteps = tsteps;
  p.transform = t;
  return p;
}

/// serve-small: Zipf(1.1) over 75 BatchKeys, tsteps 1 or 2, as a
/// 480-card deck apportioned to the Zipf weights (largest remainder).  The
/// popularity order is a fixed shuffle of the keys, the same for every
/// seed.
Traffic small_traffic() {
  std::vector<SolveParams> keys;
  for (const ServeKernel k : {ServeKernel::kJacobi, ServeKernel::kRedBlack,
                              ServeKernel::kResid}) {
    for (const long n : {16L, 24L, 32L, 40L, 48L}) {
      for (const Transform t : {Transform::kOrig, Transform::kTile,
                                Transform::kEuc3d, Transform::kGcdPad,
                                Transform::kPad}) {
        for (const int ts : {1, 2}) keys.push_back(kernel_card(k, n, ts, t));
      }
    }
  }
  // Shuffle whole keys (both tsteps variants stay adjacent), then weight
  // key rank r by (r + 1)^-1.1, split evenly over its two variants.
  Rng fixed(0x5EED, 0);
  for (std::size_t i = keys.size() / 2; i > 1; --i) {
    const auto j = static_cast<std::size_t>(fixed.below(static_cast<long>(i)));
    std::swap(keys[2 * (i - 1)], keys[2 * j]);
    std::swap(keys[2 * (i - 1) + 1], keys[2 * j + 1]);
  }
  constexpr long kCards = 480;
  std::vector<double> quota(keys.size());
  double total = 0;
  for (std::size_t v = 0; v < keys.size(); ++v) {
    quota[v] = std::pow(static_cast<double>(v / 2 + 1), -1.1);
    total += quota[v];
  }
  std::vector<long> count(keys.size());
  long dealt = 0;
  for (std::size_t v = 0; v < keys.size(); ++v) {
    quota[v] *= kCards / total;
    count[v] = static_cast<long>(quota[v]);
    dealt += count[v];
  }
  std::vector<std::size_t> by_rest(keys.size());
  for (std::size_t v = 0; v < by_rest.size(); ++v) by_rest[v] = v;
  std::stable_sort(by_rest.begin(), by_rest.end(), [&](std::size_t a, std::size_t b) {
    return quota[a] - static_cast<double>(count[a]) > quota[b] - static_cast<double>(count[b]);
  });
  for (std::size_t i = 0; dealt < kCards; ++i, ++dealt) ++count[by_rest[i]];

  Traffic t{80, 250, 0.25, 0.45, 0.95, 5, true, {}};
  for (std::size_t v = 0; v < keys.size(); ++v) {
    t.deck.insert(t.deck.end(), static_cast<std::size_t>(count[v]), keys[v]);
  }
  return t;
}

/// serve-large: a 36-card deck.  24 JACOBI/RESID cards (n 112 or 128, 2
/// or 3 steps, each under gcdpad, euc3d and tile), 7 MGRID cards (n=66, 4
/// V-cycles) and 5 SOR cards (n=66, 10 sweeps): 67/19/14%.  Every card
/// costs 25-70 ms to solve, so the heavy-rung tail measures queueing and
/// not which of a few 10x-costlier shapes a seed happened to draw.  The
/// apps' charge seeds are drawn from the run's seed.
Traffic large_traffic(std::uint64_t seed) {
  Traffic t{7, 10, 0.3, 0.5, 0.9, 250, false, {}};
  for (const ServeKernel k : {ServeKernel::kJacobi, ServeKernel::kResid}) {
    for (const long n : {112L, 128L}) {
      for (const int ts : {2, 3}) {
        for (const Transform tr : {Transform::kGcdPad, Transform::kEuc3d,
                                   Transform::kTile}) {
          t.deck.push_back(kernel_card(k, n, ts, tr));
        }
      }
    }
  }
  Rng seeds(seed, 2);
  for (int i = 0; i < 12; ++i) {
    SolveParams p;
    p.kernel = i < 7 ? ServeKernel::kMgrid : ServeKernel::kSor;
    p.n = 66;
    p.tsteps = i < 7 ? 4 : 10;
    p.seed = 1 + static_cast<std::uint64_t>(seeds.below(1L << 30));
    t.deck.push_back(p);
  }
  return t;
}

JsonValue solve_doc(std::int64_t id, const SolveParams& p) {
  JsonValue r = JsonValue::object();
  r.set("id", static_cast<long long>(id));
  r.set("op", "solve");
  r.set("kernel", rt::serve::serve_kernel_name(p.kernel));
  r.set("n", p.n);
  r.set("tsteps", p.tsteps);
  r.set("transform", std::string(rt::core::transform_name(p.transform)));
  if (is_app(p.kernel)) r.set("seed", static_cast<long long>(p.seed));
  return r;
}

JsonValue ctl_doc(std::int64_t id, const char* op) {
  JsonValue r = JsonValue::object();
  r.set("id", static_cast<long long>(id));
  r.set("op", op);
  return r;
}

/// The served answer must match the serial reference bit for bit.
void check_response(const References& refs, const SolveParams& p,
                    const JsonValue& resp, RunResult& res) {
  const auto it = refs.find(ref_key(p));
  if (it == refs.end()) {
    res.wrong("no reference for " + ref_key(p));
    return;
  }
  const Reference& ref = it->second;
  const JsonValue* sum = resp.find("checksum");
  const JsonValue* iters = resp.find("iters");
  const JsonValue* resid = resp.find("residual");
  if (sum == nullptr || sum->as_string() != rt::serve::checksum_hex(ref.checksum) ||
      iters == nullptr || iters->as_int(-1) != ref.iters || resid == nullptr ||
      resid->as_double() != ref.residual) {
    res.wrong(ref_key(p) + ": served " + resp.dump() + ", reference checksum " +
              rt::serve::checksum_hex(ref.checksum) + " iters " +
              std::to_string(ref.iters));
  }
}

/// One scheduled open-loop operation.
struct Op {
  double due_s = 0;  ///< from the start of the open-loop rungs
  Rung rung = kLight;
  const char* ctl = nullptr;  ///< "stats" / "health", or null for a solve
  SolveParams p;
};

struct InFlight {
  Clock::time_point due;
  Clock::time_point sent;
  Rung rung = kLight;
  bool ctl = false;
  SolveParams p;
};

/// Everything measured from the client side, per rung.
struct Observed {
  std::array<std::vector<double>, 3> lat_ms;   ///< ok solves, from due time
  long heavy_sent = 0;
  std::vector<double> queue_ms_heavy;
  std::vector<double> solve_ms;                ///< light + heavy
  std::vector<double> wire_ms_light;
  std::vector<double> ctl_ms;
  std::vector<double> lag_ms;
  long responses = 0;
  long plan_degraded = 0;
  long backlog_end = -1;
  std::vector<Clock::time_point> sat_done;    ///< completions inside sat
};

/// The load generator: one thread (the caller's), two connections, poll().
class LoadGen {
 public:
  LoadGen(std::array<Client, kConns>& conns, const References& refs,
          RunResult& res, Observed& obs)
      : c_(conns), refs_(refs), res_(res), obs_(obs) {}

  /// Send @p ops on schedule; returns once every response is in.
  void open_loop(const std::vector<Op>& ops, double heavy_end_s) {
    Scope rung_span("harness", "open_loop");
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point heavy_end = t0 + as_duration(heavy_end_s);
    std::size_t next = 0;
    int conn = 0;
    while (res_.correct && (next < ops.size() || !inflight_.empty())) {
      Clock::time_point now = Clock::now();
      while (next < ops.size() && t0 + as_duration(ops[next].due_s) <= now) {
        const Op& op = ops[next++];
        const int c = op.ctl != nullptr ? (op.ctl[0] == 's' ? 0 : 1) : conn;
        if (op.ctl == nullptr) conn = (conn + 1) % kConns;
        send(c, t0 + as_duration(op.due_s), op.rung, op.ctl, op.p);
        now = Clock::now();
      }
      if (obs_.backlog_end < 0 && now >= heavy_end) {
        obs_.backlog_end = solves_in_flight();
      }
      const Clock::time_point wake = next < ops.size()
                                         ? t0 + as_duration(ops[next].due_s)
                                         : now + std::chrono::milliseconds(50);
      if (!wait_and_receive(wake, heavy_end + as_duration(kDrainLimitS))) return;
    }
    if (obs_.backlog_end < 0) obs_.backlog_end = 0;
  }

  /// Closed loop for @p secs with kSatInFlight requests per connection.
  /// Returns when the time is up, leaving the last requests in flight for
  /// open_loop() to collect, so the connections never go idle between.
  void closed_loop(Dealer& dealer, double secs) {
    Scope rung_span("harness", "closed_loop");
    const Clock::time_point t0 = Clock::now();
    sat_end_ = t0 + as_duration(secs);
    dealer_ = &dealer;
    for (int c = 0; c < kConns; ++c) {
      for (int i = 0; i < kSatInFlight; ++i) send(c, t0, kSat, nullptr, dealer.next());
    }
    while (res_.correct && Clock::now() < sat_end_) {
      if (!wait_and_receive(sat_end_, sat_end_ + as_duration(kDrainLimitS))) break;
    }
    dealer_ = nullptr;
  }

 private:
  long solves_in_flight() const {
    long n = 0;
    for (const auto& kv : inflight_) n += kv.second.ctl ? 0 : 1;
    return n;
  }

  void send(int conn, Clock::time_point due, Rung rung, const char* ctl,
            const SolveParams& p) {
    const std::int64_t id = next_id_++;
    InFlight f;
    f.due = due;
    f.rung = rung;
    f.ctl = ctl != nullptr;
    f.p = p;
    const JsonValue doc = ctl != nullptr ? ctl_doc(id, ctl) : solve_doc(id, p);
    std::string why;
    f.sent = Clock::now();
    if (rung != kSat) obs_.lag_ms.push_back(ms_between(due, f.sent));
    if (rung == kHeavy && !f.ctl) ++obs_.heavy_sent;
    ++res_.attempted;
    inflight_.emplace(id, f);
    Status st;
    {
      Scope span("serve", "Client::send", nullptr, id);
      st = c_[static_cast<std::size_t>(conn)].send(doc, &why);
    }
    if (st != Status::kOk) res_.wrong("send failed: " + why);
  }

  /// Wait for responses until @p wake; false once the run must stop.
  bool wait_and_receive(Clock::time_point wake, Clock::time_point give_up) {
    pollfd fds[kConns];
    for (int c = 0; c < kConns; ++c) {
      fds[c].fd = c_[static_cast<std::size_t>(c)].fd();
      fds[c].events = POLLIN;
      fds[c].revents = 0;
    }
    const auto left = std::max(Clock::duration::zero(), wake - Clock::now());
    const auto left_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
    timespec ts{static_cast<time_t>(left_ns / 1000000000),
                static_cast<long>(left_ns % 1000000000)};
    if (::ppoll(fds, kConns, &ts, nullptr) < 0 && errno != EINTR) {
      res_.wrong("poll failed");
      return false;
    }
    for (int c = 0; c < kConns; ++c) {
      if (fds[c].revents == 0) continue;
      JsonValue resp;
      std::string why;
      Status st;
      {
        Scope span("serve", "Client::recv");
        st = c_[static_cast<std::size_t>(c)].recv(&resp, &why);
      }
      if (st != Status::kOk) {
        res_.wrong("receive failed: " + why);
        return false;
      }
      handle(c, resp, Clock::now());
    }
    if (Clock::now() > give_up && !inflight_.empty()) {
      res_.wrong(std::to_string(inflight_.size()) + " responses never arrived");
      return false;
    }
    return true;
  }

  void handle(int conn, const JsonValue& resp, Clock::time_point now) {
    const JsonValue* idv = resp.find("id");
    const auto it = idv != nullptr ? inflight_.find(idv->as_int()) : inflight_.end();
    if (it == inflight_.end()) {
      res_.wrong("response with an unknown id: " + resp.dump());
      return;
    }
    const InFlight f = it->second;
    const std::int64_t id = it->first;
    inflight_.erase(it);
    const JsonValue* st = resp.find("status");
    const bool ok = st != nullptr && st->as_string() == "ok";
    const double lat = ms_between(f.due, now);
    const auto num = [&resp](const char* k) {
      const JsonValue* v = resp.find(k);
      return v != nullptr ? v->as_double(-1) : -1.0;
    };
    if (g_tracer != nullptr) {
      g_tracer->add_request(f.due, now, id, num("queue_ms"), num("solve_ms"),
                            num("total_ms"));
    }
    if (!ok) ++res_.failed;
    if (f.ctl) {
      if (ok) obs_.ctl_ms.push_back(lat);
      return;
    }
    // A failed or refused request misses every latency limit: it enters
    // its rung's sample at the longest latency a run tolerates.
    if (!ok && f.rung != kSat) obs_.lat_ms[f.rung].push_back(kDrainLimitS * 1e3);
    if (ok) check_response(refs_, f.p, resp, res_);
    if (ok && res_.correct) {
      ++obs_.responses;
      const JsonValue* ps = resp.find("plan_status");
      if (ps == nullptr || ps->as_string() != "ok") ++obs_.plan_degraded;
      if (f.rung == kSat) {
        if (now <= sat_end_) obs_.sat_done.push_back(now);
      } else {
        obs_.lat_ms[f.rung].push_back(lat);
        obs_.solve_ms.push_back(num("solve_ms"));
        if (f.rung == kHeavy) obs_.queue_ms_heavy.push_back(num("queue_ms"));
        if (f.rung == kLight) {
          obs_.wire_ms_light.push_back(ms_between(f.sent, now) - num("total_ms"));
        }
      }
    }
    if (f.rung == kSat && dealer_ != nullptr && now < sat_end_ && res_.correct) {
      send(conn, now, kSat, nullptr, dealer_->next());
    }
  }

  std::array<Client, kConns>& c_;
  const References& refs_;
  RunResult& res_;
  Observed& obs_;
  std::unordered_map<std::int64_t, InFlight> inflight_;
  std::int64_t next_id_ = 1;
  Dealer* dealer_ = nullptr;
  Clock::time_point sat_end_{};
};

/// The open-loop schedule, plus the control ops every kCtlPeriodS.  A rung
/// at rate r is split into slots of 1/r seconds with one arrival at a
/// seeded uniform time in each: open loop, independent of the server, but
/// without the bursts of a Poisson stream, which left serve-large's tail
/// of ~100 heavy samples differing by more than any useful bound between
/// seeds.  Arrivals and the mix use separate streams, so the mix does not
/// depend on the arrival times.
std::vector<Op> schedule(const Traffic& t, std::uint64_t seed, double light_s,
                         double heavy_s) {
  Rng arrivals(seed, 4);
  Dealer mix(t.deck, seed, 1);
  std::vector<Op> ops;
  const auto rung = [&](Rung r, double rps, double from, double len) {
    const long n = std::max(1L, std::lround(rps * len));
    const double slot = len / static_cast<double>(n);
    for (long i = 0; i < n; ++i) {
      ops.push_back({from + (static_cast<double>(i) + arrivals.uniform()) * slot, r,
                     nullptr, mix.next()});
    }
  };
  rung(kLight, t.light_rps, 0, light_s);
  rung(kHeavy, t.heavy_rps, light_s, heavy_s);
  for (double at = 0; t.monitor && at < light_s + heavy_s; at += kCtlPeriodS) {
    const Rung r = at < light_s ? kLight : kHeavy;
    ops.push_back({at, r, "stats", {}});
    ops.push_back({at, r, "health", {}});
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const Op& a, const Op& b) { return a.due_s < b.due_s; });
  return ops;
}

rt::serve::ServerOptions server_options() {
  rt::serve::ServerOptions so;
  so.executors = 1;
  so.solver_threads = 2;
  so.queue_depth = 256;
  so.batching = true;
  return so;
}

/// A started server with its two connections.
struct Served {
  std::unique_ptr<rt::serve::Server> server;
  std::array<Client, kConns> conns;
};

/// Close the connections, then stop the server.
void stop_served(Served& s) {
  for (Client& c : s.conns) c.close();
  if (s.server) {
    Scope span("serve", "Server::stop");
    s.server->stop();
  }
  s.server.reset();
}

/// Server start() plus the connects: the serve workloads' set-up.
Served start_served(RunResult& res) {
  Served s;
  s.server = std::make_unique<rt::serve::Server>(server_options());
  std::string why;
  {
    Scope span("serve", "Server::start");
    if (s.server->start(&why) != Status::kOk) res.wrong("server start: " + why);
  }
  for (Client& c : s.conns) {
    Scope span("serve", "Client::connect");
    rt::guard::Expected<Client> e = Client::connect(s.server->port());
    if (!e.ok()) {
      res.wrong("connect: " + e.detail());
      break;
    }
    c = std::move(e.value());
  }
  return s;
}

/// One checked request per distinct card, one at a time, before anything
/// is timed: a long-running server has its plans cached and its arena
/// filled.
void warm_up(Served& s, const Traffic& t, const References& refs, RunResult& res) {
  Scope span("harness", "warm_up");
  std::set<std::string> seen;
  for (const SolveParams& p : t.deck) {
    const std::string key =
        ref_key(p) + "/" + std::string(rt::core::transform_name(p.transform));
    if (!seen.insert(key).second || !res.correct) continue;
    ++res.attempted;
    rt::guard::Expected<JsonValue> r = [&] {
      Scope call("serve", "Client::call");
      return s.conns[0].call(solve_doc(0, p));
    }();
    const JsonValue* st = r.ok() ? r.value().find("status") : nullptr;
    if (st == nullptr || st->as_string() != "ok") {
      res.wrong("warm-up " + key + " failed: " +
                (r.ok() ? r.value().dump() : r.detail()));
      return;
    }
    check_response(refs, p, r.value(), res);
  }
}

double stat(const JsonValue& doc, const char* group, const char* key) {
  const JsonValue* g = group != nullptr ? doc.find(group) : &doc;
  const JsonValue* v = g != nullptr ? g->find(key) : nullptr;
  return v != nullptr ? v->as_double() : 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The three rungs against a warmed server; @p stats receives the
/// server's counters at the end.
Observed drive(const Traffic& t, const RunConfig& cfg, const References& refs,
               Served& s, RunResult& res, JsonValue* stats) {
  Observed obs;
  const double light_s = cfg.seconds * t.light_share;
  const double heavy_s = cfg.seconds * t.heavy_share;
  LoadGen gen(s.conns, refs, res, obs);
  Dealer sat(t.deck, cfg.seed, 2);
  gen.closed_loop(sat, cfg.seconds - light_s - heavy_s);
  if (res.correct) gen.open_loop(schedule(t, cfg.seed, light_s, heavy_s), light_s + heavy_s);
  Scope span("serve", "Server::stats_json");
  *stats = s.server->stats_json();
  return obs;
}

/// In-process, serial replay of the generated requests through the same
/// entry points the server uses, one stage at a time, for the per-stage
/// costs the wire hides.
void replay(const Traffic& t, const RunConfig& cfg, const References& refs,
            RunResult& res) {
  Scope replay_span("harness", "replay");
  const long cs = rt::serve::serve_cs_elems();
  const Clock::time_point budget_end = Clock::now() + as_duration(cfg.seconds * 0.25);
  const std::vector<Op> ops = schedule(t, cfg.seed, cfg.seconds * t.light_share,
                                       cfg.seconds * t.heavy_share);

  std::vector<double> parse_ms, hit_ms, miss_ms, acquire_ms, checksum_ms, dump_ms;
  std::map<ServeKernel, std::vector<double>> run_ms;
  rt::core::PlanCache warm;
  rt::serve::BufferArena arena;
  rt::par::ThreadPool pool(2);
  std::set<std::string> planned;
  for (const Op& op : ops) {
    if (op.ctl != nullptr) continue;
    if (Clock::now() >= budget_end && !parse_ms.empty()) break;
    const std::string text = solve_doc(1, op.p).dump();
    rt::serve::Request req;
    std::string why;
    {
      Scope span("serve", "parse_request_text", &parse_ms);
      if (rt::serve::parse_request_text(text, &req, &why) != Status::kOk) {
        res.wrong("replay parse: " + why);
        return;
      }
    }
    const rt::serve::BatchKey key = rt::serve::batch_key_of(req.params);
    const std::string key_name =
        ref_key(req.params) + "/" + std::string(rt::core::transform_name(key.transform));
    if (planned.insert(key_name).second) {
      rt::core::PlanCache cold;
      Scope span("serve", "plan_for_batch", &miss_ms);
      rt::serve::plan_for_batch(key, cs, &cold);
    }
    rt::serve::plan_for_batch(key, cs, &warm);  // fill, then time a hit
    rt::core::PlanReport rep;
    {
      Scope span("serve", "plan_for_batch", &hit_ms);
      rep = rt::serve::plan_for_batch(key, cs, &warm);
    }
    std::vector<rt::array::Array3D<double>> arrays;
    const rt::array::Dims3 dims = rt::serve::batch_dims(key, rep.plan);
    for (int i = 0; i < rt::serve::num_arrays_for(key.kernel); ++i) {
      Scope span("serve", "BufferArena::acquire", &acquire_ms);
      arrays.push_back(arena.acquire(dims));
    }
    rt::serve::SolveOutcome out;
    {
      Scope span("serve", "run_solve", &run_ms[key.kernel]);
      out = rt::serve::run_solve(req.params, rep.plan, &arrays, &pool, 2);
    }
    const Reference& ref = refs.at(ref_key(req.params));
    if (out.status != Status::kOk || out.checksum != ref.checksum) {
      res.wrong("replay " + ref_key(req.params) + ": checksum " +
                rt::serve::checksum_hex(out.checksum));
      return;
    }
    if (!arrays.empty()) {
      Scope span("serve", "checksum_region", &checksum_ms);
      if (rt::serve::checksum_region(arrays[0]) != ref.checksum) {
        res.wrong("replay checksum_region " + ref_key(req.params));
        return;
      }
    }
    JsonValue doc = JsonValue::object();
    doc.set("id", 1).set("op", "solve").set("status", "ok");
    doc.set("kernel", rt::serve::serve_kernel_name(req.params.kernel));
    doc.set("checksum", rt::serve::checksum_hex(out.checksum));
    doc.set("iters", out.iters).set("residual", out.residual);
    {
      Scope span("obs", "JsonValue::dump", &dump_ms);
      (void)doc.dump();
    }
    for (rt::array::Array3D<double>& a : arrays) {
      Scope span("serve", "BufferArena::release");
      arena.release(std::move(a));
    }
  }
  res.set("serve.parse_us.p50", median(parse_ms) * 1e3, "us");
  res.set("serve.arena_acquire_us.p50", median(acquire_ms) * 1e3, "us");
  for (const ServeKernel k : {ServeKernel::kJacobi, ServeKernel::kRedBlack,
                              ServeKernel::kResid, ServeKernel::kMgrid,
                              ServeKernel::kSor}) {
    res.set(std::string("serve.run_solve_ms.") + rt::serve::serve_kernel_name(k),
            median(run_ms[k]), "ms");
  }
  res.set("serve.checksum_us.p50", median(checksum_ms) * 1e3, "us");
  res.set("obs.dump_us.p50", median(dump_ms) * 1e3, "us");
  res.set("core.plan_hit_us.p50", median(hit_ms) * 1e3, "us");
  res.set("core.plan_miss_us.p50", median(miss_ms) * 1e3, "us");
}

RunResult run_serve(const Traffic& t, const RunConfig& cfg) {
  RunResult res;
  // References for every result the mix can ask for, before timing.
  References refs;
  for (const SolveParams& p : t.deck) {
    if (refs.count(ref_key(p)) == 0) refs[ref_key(p)] = reference_solve(p);
  }
  if (cfg.self_test) refs.begin()->second.checksum ^= 1;

  // Set-up, repeated: each start is measured and the last one is kept.
  std::vector<double> setup_ms;
  Served s;
  for (int i = 0; i < kSetups && res.correct; ++i) {
    stop_served(s);
    const Clock::time_point t0 = Clock::now();
    s = start_served(res);
    setup_ms.push_back(ms_between(t0, Clock::now()));
  }
  warm_up(s, t, refs, res);
  if (!res.correct) return res;

  JsonValue stats;
  if (!cfg.traced()) {
    const Observed obs = drive(t, cfg, refs, s, res, &stats);
    res.set("setup_s", median(setup_ms) * 1e-3, "s",
            "start + connects, median of " + std::to_string(setup_ms.size()));
    res.set("peak_rss_mb", peak_rss_mb(), "MB");
    res.set("lat_p50_ms", median(obs.lat_ms[kLight]), "ms",
            "light rung, n=" + std::to_string(obs.lat_ms[kLight].size()));
    res.set("lat_tail_ms", quantile(obs.lat_ms[kHeavy], t.tail_q), "ms",
            "heavy rung p" + std::to_string(std::lround(t.tail_q * 100)) +
                ", n=" + std::to_string(obs.lat_ms[kHeavy].size()));
    // Completions per second from the first to the last completion inside
    // the closed loop, so the window edges do not quantize the rate.
    const std::vector<Clock::time_point>& done = obs.sat_done;
    res.set("ops_per_s",
            done.size() < 2 ? 0
                            : static_cast<double>(done.size() - 1) /
                                  (ms_between(done.front(), done.back()) * 1e-3),
            "1/s", "closed loop, " + std::to_string(done.size()) + " completions");
    return res;
  }

  // Traced run: an untraced pass for the overhead baseline, then a traced
  // pass against a fresh, warmed server, then the serial replay.
  Tracer* tracer = g_tracer;
  g_tracer = nullptr;
  const Observed plain = drive(t, cfg, refs, s, res, &stats);
  g_tracer = tracer;
  stop_served(s);
  s = start_served(res);
  warm_up(s, t, refs, res);
  if (!res.correct) return res;
  const Observed obs = drive(t, cfg, refs, s, res, &stats);
  stop_served(s);
  if (!res.correct) return res;

  res.set("serve.queue_ms.p50", median(obs.queue_ms_heavy), "ms");
  res.set("serve.queue_ms.p99", quantile(obs.queue_ms_heavy, 0.99), "ms");
  res.set("serve.solve_ms.p50", median(obs.solve_ms), "ms");
  res.set("serve.wire_ms.p50", median(obs.wire_ms_light), "ms");
  const double admitted = stat(stats, nullptr, "admitted");
  const double rejected = stat(stats, nullptr, "rejected_overloaded");
  res.set("serve.batch_mean", ratio(admitted, stat(stats, "batching", "batches")),
          "req/batch");
  res.set("serve.dedup_frac", ratio(stat(stats, "batching", "dedup_shared"), admitted),
          "ratio");
  res.set("serve.reject_frac", ratio(rejected, admitted + rejected), "ratio");
  const double ahits = stat(stats, "arena", "hits");
  res.set("serve.arena_hit_frac", ratio(ahits, ahits + stat(stats, "arena", "misses")),
          "ratio");
  res.set("serve.ctl_ms.p99", quantile(obs.ctl_ms, 0.99), "ms");
  const double phits = stat(stats, "plan_cache", "hits");
  res.set("core.plan_hit_frac",
          ratio(phits, phits + stat(stats, "plan_cache", "misses")), "ratio");
  res.set("core.plan_degraded_frac",
          ratio(static_cast<double>(obs.plan_degraded),
                static_cast<double>(obs.responses)),
          "ratio");
  res.set("gen.lag_ms.p99", quantile(obs.lag_ms, 0.99), "ms");
  res.set("gen.backlog_end", static_cast<double>(obs.backlog_end), "count");
  const auto in_limit = std::count_if(obs.lat_ms[kHeavy].begin(), obs.lat_ms[kHeavy].end(),
                                      [&t](double ms) { return ms <= t.limit_ms; });
  res.set("gen.heavy_ok_frac",
          ratio(static_cast<double>(in_limit), static_cast<double>(obs.heavy_sent)),
          "ratio");
  const double base = median(plain.lat_ms[kLight]);
  res.set("trace.overhead_frac", ratio(median(obs.lat_ms[kLight]) - base, base),
          "ratio");
  replay(t, cfg, refs, res);
  return res;
}

}  // namespace

RunResult run_serve_small(const RunConfig& cfg) {
  return run_serve(small_traffic(), cfg);
}

RunResult run_serve_large(const RunConfig& cfg) {
  return run_serve(large_traffic(cfg.seed), cfg);
}

}  // namespace e2e
