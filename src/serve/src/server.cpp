#include "rt/serve/server.hpp"

#include <arpa/inet.h>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <new>

#include "rt/core/cache_topology.hpp"
#include "rt/guard/watchdog.hpp"
#include "rt/simd/simd.hpp"
#include "rt/tune/plan_store.hpp"

namespace rt::serve {

namespace {

using Clock = std::chrono::steady_clock;
using rt::guard::Status;
using rt::obs::JsonValue;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

long long steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Seconds since @p t; restarts @p t at now.
double lap_s(Clock::time_point& t) {
  const Clock::time_point now = Clock::now();
  const double s = seconds_between(t, now);
  t = now;
  return s;
}

JsonValue plan_json(const rt::core::PlanReport& rep) {
  JsonValue p = JsonValue::object();
  p.set("transform", std::string(rt::core::transform_name(rep.plan.transform)));
  p.set("backend", std::string(rt::core::backend_name(rep.plan.backend)));
  p.set("schedule", std::string(rt::core::schedule_name(rep.plan.schedule)));
  p.set("tiled", rep.plan.tiled);
  p.set("ti", rep.plan.tile.ti);
  p.set("tj", rep.plan.tile.tj);
  p.set("dip", rep.plan.dip);
  p.set("djp", rep.plan.djp);
  return p;
}

/// Indexed by Server::Stage.
constexpr const char* kStageNames[] = {
    "parse", "queue",    "plan",  "arena", "group", "init",
    "sweep", "checksum", "write", "solve", "total"};

}  // namespace

/// One client connection.  The fd is owned here (closed on destruction);
/// writers serialize on write_m so pipelined responses never interleave.
struct Server::Conn {
  explicit Conn(int fd) : fd(fd) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  int fd = -1;
  std::mutex write_m;
  std::atomic<bool> open{true};
};

struct Server::Pending {
  Request req;
  std::shared_ptr<Conn> conn;
  Clock::time_point received;  ///< frame fully read off the wire
  Clock::time_point parsed;    ///< request document parsed and validated
  Clock::time_point enqueued;  ///< admitted to the queue
  Clock::time_point dequeued;  ///< taken off the queue by an executor
};

/// Everything a batch's worker touches, heap-held so an abandoned worker
/// can outlive the batch (the run_with_deadline ownership contract).  The
/// worker only ever writes `outcomes`/`done` under `m`; the executor reads
/// them under the same mutex, so a straggler writing group 2 cannot tear
/// the group-1 outcome being copied out.
struct Server::BatchCtx {
  std::mutex m;
  std::vector<SolveParams> groups;
  std::vector<SolveOutcome> outcomes;
  std::vector<double> group_s;  ///< each group's run_solve wall time
  std::vector<char> done;  // vector<bool> has no per-element addresses
  rt::core::TilingPlan plan;
  std::vector<rt::array::Array3D<double>> arrays;
  std::unique_ptr<rt::par::ThreadPool> own_pool;
  rt::par::ThreadPool* pool = nullptr;
  int app_threads = 1;
};

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), arena_(opts_.arena_max_bytes) {
  if (opts_.executors < 1) opts_.executors = 1;
  if (opts_.batch_max < 1) opts_.batch_max = 1;
  if (opts_.queue_depth < 1) opts_.queue_depth = 1;
  if (opts_.solver_threads < 1) opts_.solver_threads = 1;
  if (opts_.retry_after_ms < 0) opts_.retry_after_ms = 0;
  if (opts_.queue_watermark <= 0 || opts_.queue_watermark > 1.0) {
    opts_.queue_watermark = 1.0;
  }
  if (opts_.supervise_interval_ms < 1) opts_.supervise_interval_ms = 1;
  if (opts_.max_respawns < 0) opts_.max_respawns = 0;
  if (opts_.breaker_window_ms < 1) opts_.breaker_window_ms = 1;
  if (opts_.breaker_retry_after_ms < 0) opts_.breaker_retry_after_ms = 0;
}

Server::~Server() { stop(); }

rt::guard::Status Server::start(std::string* detail) {
  if (running_.load(std::memory_order_acquire)) return Status::kOk;

  // A peer that disappears mid-response must cost us one EPIPE, not the
  // process: every write error in this file is a typed, counted outcome.
  std::signal(SIGPIPE, SIG_IGN);

  if (opts_.cs_elems <= 0) opts_.cs_elems = serve_cs_elems();

  store_status_ = Status::kOk;
  store_detail_.clear();
  if (!opts_.plan_store.empty()) {
    rt::guard::Expected<rt::tune::PlanStore> store = rt::tune::load_store(
        opts_.plan_store, rt::core::host_cache_topology().fingerprint());
    if (store.ok()) {
      rt::tune::install(store.value(), cache_);
    } else {
      // Degraded, not fatal: the server plans from the model instead.
      store_status_ = store.status();
      store_detail_ = store.detail();
    }
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (detail) *detail = std::string("socket: ") + std::strerror(errno);
    return Status::kIoError;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    if (detail) *detail = std::string("bind/listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::kIoError;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  if (opts_.solver_threads > 1) {
    pool_ = std::make_unique<rt::par::ThreadPool>(opts_.solver_threads);
  }
  abandoned_baseline_ = rt::guard::abandoned_thread_count();

  draining_.store(false, std::memory_order_release);
  degraded_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lk(q_m_);
    stop_executors_ = false;
  }
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    breaker_events_ms_.clear();
  }
  {
    std::lock_guard<std::mutex> lk(sup_m_);
    sup_stop_ = false;
  }
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { acceptor_loop(); });
  {
    std::lock_guard<std::mutex> lk(exec_m_);
    for (int i = 0; i < opts_.executors; ++i) spawn_executor();
  }
  supervisor_ = std::thread([this] { supervisor_loop(); });
  return Status::kOk;
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // 0. Retire the supervisor first: nothing may respawn executors while
  //    the lists below are being drained and joined.
  {
    std::lock_guard<std::mutex> lk(sup_m_);
    sup_stop_ = true;
  }
  sup_cv_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();

  // 1. Stop intake: no new connections, new solve requests rejected as
  //    overloaded ("draining").
  draining_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();

  // 2. Drain: executors finish every admitted request, then exit.  This
  //    joins retired (wedged) executors too — their wedges must have
  //    cleared by now (cooperative contract, see server.hpp).
  {
    std::lock_guard<std::mutex> lk(q_m_);
    stop_executors_ = true;
  }
  q_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lk(exec_m_);
    for (ExecSlot& s : executors_) {
      if (s.th.joinable()) s.th.join();
    }
    executors_.clear();
    for (std::thread& t : retired_executors_) {
      if (t.joinable()) t.join();
    }
    retired_executors_.clear();
  }

  // 3. Hang up: wake blocked readers, join handlers, release connections.
  {
    std::lock_guard<std::mutex> lk(conns_m_);
    for (const std::shared_ptr<Conn>& c : conns_) {
      c->open.store(false, std::memory_order_release);
      ::shutdown(c->fd, SHUT_RDWR);
    }
  }
  for (std::thread& t : handlers_) {
    if (t.joinable()) t.join();
  }
  handlers_.clear();
  {
    std::lock_guard<std::mutex> lk(conns_m_);
    conns_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  pool_.reset();
}

void Server::acceptor_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (stop()) or fatal — either way, done
    }
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    // Without TCP_NODELAY the connection still works, only slower: count
    // the failure and serve it anyway.
    const bool nodelay = set_nodelay(fd) == Status::kOk;
    auto conn = std::make_shared<Conn>(fd);
    std::lock_guard<std::mutex> lk(conns_m_);
    {
      std::lock_guard<std::mutex> slk(stats_m_);
      ++counters_.connections;
      if (!nodelay) ++counters_.io_errors;
    }
    conns_.push_back(conn);
    handlers_.emplace_back([this, conn] { handler_loop(conn); });
  }
}

void Server::handler_loop(std::shared_ptr<Conn> conn) {
  for (;;) {
    std::string payload, why;
    const FrameResult fr = read_frame(conn->fd, &payload, &why);
    const Clock::time_point received = Clock::now();
    if (fr == FrameResult::kEof) break;
    if (fr == FrameResult::kTruncated || fr == FrameResult::kError ||
        fr == FrameResult::kTimeout) {
      // kTimeout can only fire if someone arms SO_RCVTIMEO on an accepted
      // fd; the stream is unsynced either way, so hang up like kError.
      std::lock_guard<std::mutex> lk(stats_m_);
      fr == FrameResult::kTruncated ? ++counters_.protocol_errors
                                    : ++counters_.io_errors;
      break;
    }
    if (fr == FrameResult::kOversized) {
      // The payload was never read, so the stream cannot be re-synced:
      // answer with the typed reason, then hang up.
      {
        std::lock_guard<std::mutex> lk(stats_m_);
        ++counters_.protocol_errors;
      }
      respond_error(conn, -1, Status::kInvalidArgument, why);
      break;
    }
    handle_payload(conn, payload, received);
    if (!conn->open.load(std::memory_order_acquire)) break;
  }
  conn->open.store(false, std::memory_order_release);
  ::shutdown(conn->fd, SHUT_RDWR);
}

void Server::handle_payload(const std::shared_ptr<Conn>& conn,
                            const std::string& payload, TimePoint received) {
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    ++counters_.requests;
  }
  Request req;
  std::string why;
  const Status st = parse_request_text(payload, &req, &why);
  const Clock::time_point parsed = Clock::now();
  if (st != Status::kOk) {
    // Malformed content in a well-framed payload: typed response, and the
    // connection stays usable — framing is intact.
    {
      std::lock_guard<std::mutex> lk(stats_m_);
      ++counters_.protocol_errors;
    }
    respond_error(conn, req.id, st, why);
    return;
  }
  switch (req.op) {
    case Op::kPing: {
      JsonValue doc = JsonValue::object();
      doc.set("id", static_cast<long long>(req.id));
      doc.set("op", "ping");
      doc.set("status", std::string(rt::guard::status_name(Status::kOk)));
      respond(conn, doc);
      return;
    }
    case Op::kStats: {
      JsonValue doc = JsonValue::object();
      doc.set("id", static_cast<long long>(req.id));
      doc.set("op", "stats");
      doc.set("status", std::string(rt::guard::status_name(Status::kOk)));
      doc.set("stats", stats_json());
      respond(conn, doc);
      return;
    }
    case Op::kHealth: {
      JsonValue doc = JsonValue::object();
      doc.set("id", static_cast<long long>(req.id));
      doc.set("op", "health");
      doc.set("status", std::string(rt::guard::status_name(Status::kOk)));
      doc.set("health", health_json());
      respond(conn, doc);
      return;
    }
    case Op::kSolve:
      break;
  }
  if (req.params.n > opts_.max_n ||
      (req.params.k > 0 && req.params.k > opts_.max_n)) {
    respond_error(conn, req.id, Status::kInvalidArgument,
                  "n/k exceeds this server's limit (" +
                      std::to_string(opts_.max_n) + ")");
    return;
  }
  admit(conn, req, received, parsed);
}

void Server::admit(const std::shared_ptr<Conn>& conn, const Request& req,
                   TimePoint received, TimePoint parsed) {
  auto p = std::make_unique<Pending>();
  p->req = req;
  if (p->req.deadline_ms <= 0) p->req.deadline_ms = opts_.default_deadline_ms;
  p->conn = conn;
  p->received = received;
  p->parsed = parsed;
  bool draining = false;
  bool rejected = false;
  const bool degraded = degraded_.load(std::memory_order_acquire);
  // Watermark: < 1.0 sheds load before the queue is hard-full, so the
  // retry_after hint goes out while the server still has headroom.
  const std::size_t limit =
      opts_.queue_watermark >= 1.0
          ? opts_.queue_depth
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       opts_.queue_watermark *
                       static_cast<double>(opts_.queue_depth)));
  {
    std::lock_guard<std::mutex> lk(q_m_);
    draining = draining_.load(std::memory_order_acquire);
    if (draining || degraded || queue_.size() >= limit) {
      rejected = true;
    } else {
      p->enqueued = Clock::now();
      queue_.push_back(std::move(p));
    }
  }
  if (rejected) {
    // Respond outside q_m_: a slow client's socket must never stall the
    // executors' access to the queue.  Draining carries no retry hint
    // (this server is going away); queue pressure and breaker rejections
    // do — that hint is what rt::resil::RetryingClient paces itself by.
    const int hint = draining ? 0
                     : degraded ? opts_.breaker_retry_after_ms
                                : opts_.retry_after_ms;
    {
      std::lock_guard<std::mutex> slk(stats_m_);
      ++counters_.rejected_overloaded;
      if (degraded && !draining) ++counters_.degraded_rejections;
      if (hint > 0) ++counters_.retry_hints;
    }
    respond_error(conn, req.id, Status::kOverloaded,
                  draining   ? "server is draining"
                  : degraded ? "server is degraded (circuit breaker open)"
                             : "admission queue is full",
                  hint);
    return;
  }
  {
    std::lock_guard<std::mutex> slk(stats_m_);
    ++counters_.admitted;
  }
  q_cv_.notify_one();
}

void Server::executor_loop(std::shared_ptr<ExecState> state) {
  for (;;) {
    std::vector<std::unique_ptr<Pending>> batch;
    {
      std::unique_lock<std::mutex> lk(q_m_);
      q_cv_.wait(lk, [this, &state] {
        return stop_executors_ || !queue_.empty() ||
               state->retired.load(std::memory_order_acquire);
      });
      // A retired executor exits even with work queued: its replacement
      // (or a surviving sibling) owns the queue now.
      if (state->retired.load(std::memory_order_acquire)) return;
      if (queue_.empty()) {
        if (stop_executors_) return;  // drained
        continue;
      }
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      if (opts_.batching) {
        const BatchKey key = batch_key_of(batch[0]->req.params);
        for (auto it = queue_.begin();
             it != queue_.end() &&
             batch.size() < static_cast<std::size_t>(opts_.batch_max);) {
          if (batch_key_of((*it)->req.params) == key) {
            batch.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      }
    }
    const Clock::time_point dequeued = Clock::now();
    for (const std::unique_ptr<Pending>& p : batch) p->dequeued = dequeued;
    // Heartbeat for the supervisor: busy from here until run_batch
    // returns.  A no-deadline wedge freezes this thread inside run_batch
    // with busy_since stuck in the past — exactly what wedge detection
    // keys on.
    state->busy_since_ms.store(steady_ms(), std::memory_order_release);
    run_batch(std::move(batch));
    state->busy_since_ms.store(-1, std::memory_order_release);
    if (state->retired.load(std::memory_order_acquire)) return;
  }
}

void Server::spawn_executor() {
  ExecSlot slot;
  slot.state = std::make_shared<ExecState>();
  std::shared_ptr<ExecState> st = slot.state;
  slot.th = std::thread([this, st] { executor_loop(st); });
  executors_.push_back(std::move(slot));
}

void Server::supervisor_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(sup_m_);
      sup_cv_.wait_for(lk,
                       std::chrono::milliseconds(opts_.supervise_interval_ms),
                       [this] { return sup_stop_; });
      if (sup_stop_) return;
    }
    const long long now = steady_ms();

    // Wedge detection: an executor busy past the threshold is retired
    // (its thread exits once the wedge clears) and replaced, up to the
    // respawn cap.  Lock order: exec_m_ before stats_m_ (see server.hpp).
    int newly_wedged = 0;
    if (opts_.executor_wedge_ms > 0) {
      std::lock_guard<std::mutex> lk(exec_m_);
      std::uint64_t respawned;
      {
        std::lock_guard<std::mutex> slk(stats_m_);
        respawned = counters_.executors_respawned;
      }
      for (std::size_t i = 0; i < executors_.size();) {
        const long long busy =
            executors_[i].state->busy_since_ms.load(std::memory_order_acquire);
        if (busy >= 0 && now - busy >= opts_.executor_wedge_ms) {
          executors_[i].state->retired.store(true, std::memory_order_release);
          q_cv_.notify_all();  // in case it is parked, not wedged
          retired_executors_.push_back(std::move(executors_[i].th));
          executors_.erase(executors_.begin() +
                           static_cast<std::ptrdiff_t>(i));
          ++newly_wedged;
          if (respawned < static_cast<std::uint64_t>(opts_.max_respawns)) {
            spawn_executor();
            ++respawned;
          }
          continue;
        }
        ++i;
      }
      if (newly_wedged > 0) {
        std::lock_guard<std::mutex> slk(stats_m_);
        counters_.executors_wedged += static_cast<std::uint64_t>(newly_wedged);
        counters_.executors_respawned = respawned;
        for (int i = 0; i < newly_wedged; ++i) {
          breaker_events_ms_.push_back(now);
        }
      }
    }

    // Circuit breaker: trip when the abandonment/wedge rate crosses the
    // threshold, reset only when the window has fully cleared.
    if (opts_.breaker_threshold > 0) {
      std::size_t in_window = 0;
      {
        std::lock_guard<std::mutex> slk(stats_m_);
        while (!breaker_events_ms_.empty() &&
               breaker_events_ms_.front() < now - opts_.breaker_window_ms) {
          breaker_events_ms_.pop_front();
        }
        in_window = breaker_events_ms_.size();
        if (!degraded_.load(std::memory_order_acquire) &&
            in_window >= static_cast<std::size_t>(opts_.breaker_threshold)) {
          degraded_.store(true, std::memory_order_release);
          ++counters_.breaker_trips;
        } else if (degraded_.load(std::memory_order_acquire) &&
                   in_window == 0) {
          degraded_.store(false, std::memory_order_release);
          ++counters_.breaker_resets;
        }
      }
    }
  }
}

void Server::run_batch(std::vector<std::unique_ptr<Pending>> batch) {
  const Clock::time_point t_start = Clock::now();
  const std::size_t members_pulled = batch.size();

  // Deadlines are wall time from frame receipt: a request that waited out
  // its whole budget in the queue times out without running at all.
  long min_remaining_ms = 0;
  bool has_deadline = false;
  {
    std::vector<std::unique_ptr<Pending>> live;
    live.reserve(batch.size());
    for (std::unique_ptr<Pending>& p : batch) {
      if (p->req.deadline_ms > 0) {
        const double elapsed_ms =
            seconds_between(p->received, t_start) * 1e3;
        const long remaining =
            p->req.deadline_ms - static_cast<long>(elapsed_ms);
        if (remaining <= 0) {
          {
            std::lock_guard<std::mutex> lk(stats_m_);
            ++counters_.timeouts;
          }
          respond_error(p->conn, p->req.id, Status::kTimeout,
                        "deadline expired while queued");
          continue;
        }
        min_remaining_ms = has_deadline
                               ? std::min(min_remaining_ms, remaining)
                               : remaining;
        has_deadline = true;
      }
      live.push_back(std::move(p));
    }
    batch = std::move(live);
  }
  if (batch.empty()) return;

  // One plan lookup for the whole batch (pinned rt::tune winners included).
  const BatchKey key = batch_key_of(batch[0]->req.params);
  Clock::time_point lap = Clock::now();
  const rt::core::PlanReport rep =
      plan_for_batch(key, opts_.cs_elems, &cache_);
  const double plan_s = lap_s(lap);
  if (rep.status == Status::kOverflow) {
    for (const std::unique_ptr<Pending>& p : batch) {
      respond_error(p->conn, p->req.id, rep.status, rep.detail);
    }
    return;
  }

  // Dedup: members with fully equal SolveParams share one computed group.
  auto ctx = std::make_shared<BatchCtx>();
  ctx->plan = rep.plan;
  std::vector<std::size_t> group_of(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::size_t g = ctx->groups.size();
    for (std::size_t j = 0; j < ctx->groups.size(); ++j) {
      if (ctx->groups[j] == batch[i]->req.params) {
        g = j;
        break;
      }
    }
    if (g == ctx->groups.size()) ctx->groups.push_back(batch[i]->req.params);
    group_of[i] = g;
  }
  ctx->outcomes.resize(ctx->groups.size());
  ctx->group_s.assign(ctx->groups.size(), 0.0);
  ctx->done.assign(ctx->groups.size(), 0);
  ctx->app_threads = opts_.solver_threads;

  // The scheduling decision is fully made here — record it before any
  // response is written, so a client that reads stats right after its
  // response sees the batch that produced it.
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    ++counters_.batches;
    if (members_pulled > 1) counters_.batched_requests += members_pulled;
    counters_.max_batch =
        std::max<std::uint64_t>(counters_.max_batch, members_pulled);
    counters_.dedup_shared += batch.size() - ctx->groups.size();
  }

  // One padded allocation set shared by every group (kernel paths).
  const int narrays = num_arrays_for(key.kernel);
  lap = Clock::now();
  if (narrays > 0) {
    const rt::array::Dims3 dims = batch_dims(key, rep.plan);
    try {
      for (int i = 0; i < narrays; ++i) {
        ctx->arrays.push_back(arena_.acquire(dims));
      }
    } catch (const std::bad_alloc&) {
      for (rt::array::Array3D<double>& a : ctx->arrays) {
        arena_.release(std::move(a));
      }
      for (const std::unique_ptr<Pending>& p : batch) {
        respond_error(p->conn, p->req.id, Status::kAllocFailed,
                      "grid allocation failed");
      }
      return;
    }
  }
  const double arena_s = lap_s(lap);

  // A deadline batch gets its own pool: if the watchdog abandons the
  // worker, that thread must not touch the server's shared pool after the
  // server is gone.  Deadline-free batches share pool_ (no abandonment
  // possible — the work runs on this executor thread).
  if (opts_.solver_threads > 1) {
    if (has_deadline) {
      ctx->own_pool =
          std::make_unique<rt::par::ThreadPool>(opts_.solver_threads);
      ctx->pool = ctx->own_pool.get();
    } else {
      ctx->pool = pool_.get();
    }
  }

  auto work = [ctx] {
    for (std::size_t g = 0; g < ctx->groups.size(); ++g) {
      const Clock::time_point g0 = Clock::now();
      SolveOutcome out = run_solve(
          ctx->groups[g], ctx->plan,
          ctx->arrays.empty() ? nullptr : &ctx->arrays, ctx->pool,
          ctx->app_threads);
      const double group_s = seconds_between(g0, Clock::now());
      std::lock_guard<std::mutex> lk(ctx->m);
      ctx->outcomes[g] = std::move(out);
      ctx->group_s[g] = group_s;
      ctx->done[g] = 1;
    }
  };

  bool abandoned = false;
  if (!has_deadline) {
    work();
  } else {
    const rt::guard::WatchdogResult w = rt::guard::run_with_deadline(
        work, std::chrono::milliseconds(min_remaining_ms),
        std::chrono::milliseconds(opts_.watchdog_grace_ms));
    abandoned = w.abandoned;
  }
  const Clock::time_point t_done = Clock::now();
  if (abandoned) {
    // Record the loss before any timeout response goes out: a client that
    // asks for stats right after its "timeout" must see the abandonment.
    // The event also feeds the circuit breaker's sliding window.
    std::lock_guard<std::mutex> lk(stats_m_);
    ++counters_.abandoned_batches;
    abandoned_ctxs_.push_back(std::weak_ptr<void>(ctx));
    breaker_events_ms_.push_back(steady_ms());
  }

  // Copy outcomes under the ctx mutex (an abandoned straggler may still be
  // writing other slots), then respond without holding it.
  std::vector<SolveOutcome> outcomes;
  std::vector<double> group_s;
  std::vector<char> done;
  {
    std::lock_guard<std::mutex> lk(ctx->m);
    outcomes = ctx->outcomes;
    group_s = ctx->group_s;
    done = ctx->done;
  }
  const char* simd = rt::simd::simd_level_name(
      rt::simd::resolve(rt::simd::SimdMode::kAuto));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Pending& p = *batch[i];
    const std::size_t g = group_of[i];
    if (!done[g]) {
      {
        std::lock_guard<std::mutex> lk(stats_m_);
        ++counters_.timeouts;
      }
      respond_error(p.conn, p.req.id, Status::kTimeout,
                    "deadline expired during solve");
      continue;
    }
    const SolveOutcome& out = outcomes[g];
    if (out.status != Status::kOk) {
      respond_error(p.conn, p.req.id, out.status, out.detail);
      continue;
    }
    JsonValue doc = JsonValue::object();
    doc.set("id", static_cast<long long>(p.req.id));
    doc.set("op", "solve");
    doc.set("status", std::string(rt::guard::status_name(Status::kOk)));
    doc.set("detail", "");
    doc.set("kernel", serve_kernel_name(p.req.params.kernel));
    doc.set("n", key.n);
    doc.set("k", key.k);
    doc.set("tsteps", p.req.params.tsteps);
    doc.set("plan", plan_json(rep));
    doc.set("plan_status",
            std::string(rt::guard::status_name(rep.status)));
    doc.set("simd", simd);
    doc.set("stores", rt::simd::stores_name(out.stores));
    doc.set("threads", opts_.solver_threads);
    doc.set("checksum", checksum_hex(out.checksum));
    doc.set("iters", out.iters);
    doc.set("residual", out.residual);
    doc.set("batch_size", static_cast<long long>(batch.size()));
    doc.set("shared", std::count(group_of.begin(), group_of.end(), g) > 1);
    const double queue_s = seconds_between(p.enqueued, t_start);
    const double solve_s = seconds_between(t_start, t_done);
    const double total_s = seconds_between(p.received, Clock::now());
    doc.set("queue_ms", queue_s * 1e3);
    doc.set("solve_ms", solve_s * 1e3);
    doc.set("total_ms", total_s * 1e3);
    // Indexed by Stage, parse through checksum.
    const double stage_s[] = {seconds_between(p.received, p.parsed),
                              seconds_between(p.enqueued, p.dequeued),
                              plan_s,
                              arena_s,
                              group_s[g],
                              out.init_ms * 1e-3,
                              out.sweep_ms * 1e-3,
                              out.checksum_ms * 1e-3};
    JsonValue timing = JsonValue::object();
    for (int s = kParse; s <= kChecksum; ++s) {
      timing.set(std::string(kStageNames[s]) + "_ms", stage_s[s] * 1e3);
    }
    doc.set("timing", std::move(timing));
    // Recorded before the write, so a client that reads stats right after
    // its response sees the request in them.
    for (int s = kParse; s <= kChecksum; ++s) {
      stage_hist_[s].record(stage_s[s]);
    }
    stage_hist_[kSolve].record(solve_s);
    stage_hist_[kTotal].record(total_s);
    respond(p.conn, doc);
    {
      std::lock_guard<std::mutex> lk(stats_m_);
      ++counters_.responses_ok;
    }
  }

  // Arena return — unless the batch was abandoned, in which case the
  // straggler owns the buffers until its thread dies (counted, never
  // reused: handing them back now could give the next request a buffer a
  // zombie thread is still writing).
  if (!abandoned) {
    for (rt::array::Array3D<double>& a : ctx->arrays) {
      arena_.release(std::move(a));
    }
    ctx->arrays.clear();
  }

}

void Server::respond(const std::shared_ptr<Conn>& conn,
                     const JsonValue& doc) {
  if (!conn->open.load(std::memory_order_acquire)) return;
  const std::string payload = doc.dump();
  std::string why;
  std::lock_guard<std::mutex> lk(conn->write_m);
  const Clock::time_point t0 = Clock::now();
  const Status st = write_frame(conn->fd, payload, &why);
  stage_hist_[kWrite].record(seconds_between(t0, Clock::now()));
  if (st != Status::kOk) {
    conn->open.store(false, std::memory_order_release);
    ::shutdown(conn->fd, SHUT_RDWR);
    std::lock_guard<std::mutex> slk(stats_m_);
    ++counters_.io_errors;
  }
}

void Server::respond_error(const std::shared_ptr<Conn>& conn, std::int64_t id,
                           rt::guard::Status st, const std::string& detail,
                           int retry_after_ms) {
  JsonValue doc = JsonValue::object();
  doc.set("id", static_cast<long long>(id));
  doc.set("op", "solve");
  doc.set("status", std::string(rt::guard::status_name(st)));
  doc.set("detail", detail);
  if (retry_after_ms > 0) doc.set("retry_after_ms", retry_after_ms);
  respond(conn, doc);
  std::lock_guard<std::mutex> lk(stats_m_);
  ++counters_.responses_error;
}

rt::obs::JsonValue Server::health_json() const {
  const bool draining = draining_.load(std::memory_order_acquire);
  const bool degraded = degraded_.load(std::memory_order_acquire);
  std::size_t queued = 0;
  {
    std::lock_guard<std::mutex> lk(q_m_);
    queued = queue_.size();
  }
  std::size_t live = 0;
  std::size_t retired = 0;
  {
    std::lock_guard<std::mutex> lk(exec_m_);
    live = executors_.size();
    retired = retired_executors_.size();
  }
  const std::size_t limit =
      opts_.queue_watermark >= 1.0
          ? opts_.queue_depth
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       opts_.queue_watermark *
                       static_cast<double>(opts_.queue_depth)));

  JsonValue h = JsonValue::object();
  h.set("state", std::string(draining   ? "draining"
                             : degraded ? "degraded"
                                        : "healthy"));
  // Ready = would this server admit a solve arriving right now.
  h.set("ready", !draining && !degraded && queued < limit && live > 0);
  h.set("queue", static_cast<long long>(queued));
  h.set("queue_limit", static_cast<long long>(limit));
  h.set("queue_depth", static_cast<long long>(opts_.queue_depth));
  h.set("executors_live", static_cast<long long>(live));
  h.set("executors_retired", static_cast<long long>(retired));
  {
    std::lock_guard<std::mutex> lk(stats_m_);
    const long long now = steady_ms();
    std::size_t in_window = 0;
    for (const long long t : breaker_events_ms_) {
      if (t >= now - opts_.breaker_window_ms) ++in_window;
    }
    JsonValue br = JsonValue::object();
    br.set("enabled", opts_.breaker_threshold > 0);
    br.set("open", degraded);
    br.set("events_in_window", static_cast<long long>(in_window));
    br.set("threshold", opts_.breaker_threshold);
    br.set("window_ms", opts_.breaker_window_ms);
    h.set("breaker", std::move(br));
  }
  if (degraded) h.set("retry_after_ms", opts_.breaker_retry_after_ms);
  return h;
}

rt::obs::JsonValue Server::stats_json() const {
  static_assert(std::size(kStageNames) == kNumStages);
  // The histograms are atomic: read them before taking stats_m_, so a
  // stats op never holds up the executors' counter updates.
  const rt::obs::LatencyHistogram& total = stage_hist_[kTotal];
  JsonValue lat = JsonValue::object();
  lat.set("count", total.count());
  lat.set("queue_mean_ms", stage_hist_[kQueue].mean_s() * 1e3);
  lat.set("solve_mean_ms", stage_hist_[kSolve].mean_s() * 1e3);
  lat.set("p50_ms", total.quantile(0.50) * 1e3);
  lat.set("p99_ms", total.quantile(0.99) * 1e3);
  lat.set("max_ms", total.max_s() * 1e3);
  JsonValue stages = JsonValue::object();
  for (int i = 0; i < kNumStages; ++i) {
    const rt::obs::LatencyHistogram& h = stage_hist_[i];
    JsonValue st = JsonValue::object();
    st.set("count", h.count());
    st.set("p50_ms", h.quantile(0.50) * 1e3);
    st.set("p99_ms", h.quantile(0.99) * 1e3);
    stages.set(kStageNames[i], std::move(st));
  }
  lat.set("stages", std::move(stages));

  std::lock_guard<std::mutex> lk(stats_m_);
  JsonValue s = JsonValue::object();
  s.set("connections", counters_.connections);
  s.set("requests", counters_.requests);
  s.set("admitted", counters_.admitted);
  s.set("rejected_overloaded", counters_.rejected_overloaded);
  s.set("protocol_errors", counters_.protocol_errors);
  s.set("io_errors", counters_.io_errors);
  s.set("responses_ok", counters_.responses_ok);
  s.set("responses_error", counters_.responses_error);
  s.set("timeouts", counters_.timeouts);

  JsonValue b = JsonValue::object();
  b.set("enabled", opts_.batching);
  b.set("batches", counters_.batches);
  b.set("batched_requests", counters_.batched_requests);
  b.set("max_batch", counters_.max_batch);
  b.set("dedup_shared", counters_.dedup_shared);
  s.set("batching", std::move(b));

  JsonValue rz = JsonValue::object();
  rz.set("state",
         std::string(draining_.load(std::memory_order_acquire) ? "draining"
                     : degraded_.load(std::memory_order_acquire)
                         ? "degraded"
                         : "healthy"));
  rz.set("retry_hints", counters_.retry_hints);
  rz.set("degraded_rejections", counters_.degraded_rejections);
  rz.set("executors_wedged", counters_.executors_wedged);
  rz.set("executors_respawned", counters_.executors_respawned);
  rz.set("breaker_trips", counters_.breaker_trips);
  rz.set("breaker_resets", counters_.breaker_resets);
  {
    const long long now = steady_ms();
    std::size_t in_window = 0;
    for (const long long t : breaker_events_ms_) {
      if (t >= now - opts_.breaker_window_ms) ++in_window;
    }
    rz.set("breaker_events_in_window", static_cast<long long>(in_window));
  }
  s.set("resilience", std::move(rz));

  JsonValue ab = JsonValue::object();
  ab.set("abandoned_batches", counters_.abandoned_batches);
  ab.set("abandoned_threads",
         rt::guard::abandoned_thread_count() - abandoned_baseline_);
  std::size_t in_flight = 0;
  // const_cast-free pruning is not worth a mutable vector: just count.
  for (const std::weak_ptr<void>& w : abandoned_ctxs_) {
    if (!w.expired()) ++in_flight;
  }
  ab.set("abandoned_in_flight", static_cast<long long>(in_flight));
  s.set("abandonment", std::move(ab));

  s.set("latency", std::move(lat));

  const BufferArena::Stats as = arena_.stats();
  JsonValue ar = JsonValue::object();
  ar.set("hits", as.hits);
  ar.set("misses", as.misses);
  ar.set("returns", as.returns);
  ar.set("dropped", as.dropped);
  ar.set("cached_buffers", static_cast<long long>(as.cached_buffers));
  ar.set("cached_bytes", static_cast<long long>(as.cached_bytes));
  s.set("arena", std::move(ar));

  const rt::core::PlanCacheStats cs = cache_.stats();
  JsonValue pc = JsonValue::object();
  pc.set("hits", cs.hits);
  pc.set("misses", cs.misses);
  pc.set("pinned_hits", cs.pinned_hits);
  s.set("plan_cache", std::move(pc));

  s.set("plan_store_status",
        std::string(rt::guard::status_name(store_status_)));
  if (!store_detail_.empty()) s.set("plan_store_detail", store_detail_);
  return s;
}

}  // namespace rt::serve
