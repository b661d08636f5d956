#include "serve/cluster/shard_router.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <poll.h>
#include <sys/socket.h>
#include <unordered_map>
#include <utility>

namespace tspn::serve::cluster {

namespace {

using Clock = std::chrono::steady_clock;

/// Largest reply frame a shard connection accepts; a longer declared
/// length cannot be framed and fails the connection.
constexpr uint32_t kMaxReplyBytes = 1u << 20;

constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

int64_t ElapsedMs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               since)
      .count();
}

int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// The length-prefixed bytes one frame occupies on a shard connection.
std::vector<uint8_t> Wrap(const std::vector<uint8_t>& frame) {
  std::vector<uint8_t> wire(sizeof(uint32_t) + frame.size());
  common::StoreU32Le(static_cast<uint32_t>(frame.size()), wire.data());
  std::memcpy(wire.data() + sizeof(uint32_t), frame.data(), frame.size());
  return wire;
}

/// Endpoint roll-up over per-shard snapshots (unreachable shards are
/// empty): counters and qps sum; percentiles take the max (the
/// conservative "worst shard" cluster latency).
std::vector<WireEndpointStats> MergeEndpoints(
    const std::vector<WireStatsSnapshot>& snapshots) {
  std::vector<WireEndpointStats> rows;
  std::unordered_map<std::string, size_t> row_index;
  for (const WireStatsSnapshot& snapshot : snapshots) {
    for (const WireEndpointStats& row : snapshot.endpoints) {
      auto [it, inserted] = row_index.emplace(row.endpoint, rows.size());
      if (inserted) {
        rows.push_back(row);
        continue;
      }
      WireEndpointStats& merged = rows[it->second];
      merged.queue_depth += row.queue_depth;
      merged.lifetime_submitted += row.lifetime_submitted;
      merged.lifetime_completed += row.lifetime_completed;
      merged.lifetime_rejected += row.lifetime_rejected;
      merged.shed_deadline += row.shed_deadline;
      merged.shed_capacity += row.shed_capacity;
      merged.expired_in_queue += row.expired_in_queue;
      merged.degraded += row.degraded;
      merged.swaps += row.swaps;
      merged.degraded_now = merged.degraded_now || row.degraded_now;
      merged.qps += row.qps;
      merged.p50_latency_ms = std::max(merged.p50_latency_ms, row.p50_latency_ms);
      merged.p95_latency_ms = std::max(merged.p95_latency_ms, row.p95_latency_ms);
    }
  }
  return rows;
}

}  // namespace

std::string RoutingKey(const std::string& endpoint, int32_t user) {
  return endpoint + "|" + std::to_string(user);
}

/// One frame on its way through the router: a client frame walking its
/// replicas, or a router-originated ping or stats poll for one shard.
struct ShardRouter::Call {
  enum class Kind : uint8_t { kForward, kPing, kStats };
  Kind kind = Kind::kForward;
  /// The frame as received (forwarded verbatim) or the control frame.
  std::vector<uint8_t> frame;
  /// Re-encodes a deadline-carrying frame with a hop's budget; null
  /// forwards `frame` verbatim.
  std::function<std::vector<uint8_t>(int64_t)> rewrite;
  int64_t deadline_ms = 0;  ///< client budget; 0 = call_timeout_ms per hop
  Clock::time_point start = Clock::now();
  std::string endpoint;
  std::vector<Shard*> replicas;
  size_t replica = 0;      ///< the replica being tried
  bool attempted = false;  ///< a replica was attempted (failover count)
  bool resent = false;     ///< already moved to a fresh connection once
  bool held = false;       ///< holds one of queue_depth's slots
  bool itinerary = false;  ///< an itinerary request (a slow reply)
  uint64_t nonce = 0;      ///< kPing: the pong must echo it
  std::string last_error = "no replica attempted";
  FrameCallback done;
};

/// One multiplexed connection to a shard. Any thread queues and writes
/// frames; the owning loop alone dials, reads, matches replies and closes.
struct ShardRouter::Conn {
  /// A frame written, or waiting to be written, on this connection.
  struct Pending {
    std::unique_ptr<Call> call;
    Clock::time_point deadline;  ///< this attempt's timeout
    std::vector<uint8_t> wire;   ///< length prefix + frame
    size_t sent = 0;             ///< bytes of `wire` written
  };

  Shard* shard = nullptr;
  Loop* loop = nullptr;
  /// The frames pending and the itineraries among them, kept with
  /// `pending` under the mutex and read without it by Shard::Pick.
  std::atomic<int64_t> frames{0};
  std::atomic<int64_t> itineraries{0};

  std::mutex mutex;  ///< guards everything down to `stopped`
  common::UniqueFd fd;            ///< valid while dialing or connected
  bool connecting = false;        ///< the dial's connect is under way
  std::deque<Pending> pending;    ///< write order == reply order
  size_t unsent = 0;              ///< first entry not fully written
  bool broken = false;            ///< a send failed; the loop fails it
  bool stopped = false;           ///< Stop() drained it for good

  void Push(Pending entry) {
    frames.fetch_add(1);
    if (entry.call->itinerary) itineraries.fetch_add(1);
    pending.push_back(std::move(entry));
  }
  std::unique_ptr<Call> PopHead() {
    std::unique_ptr<Call> call = std::move(pending.front().call);
    pending.pop_front();
    --unsent;
    frames.fetch_sub(1);
    if (call->itinerary) itineraries.fetch_sub(1);
    return call;
  }
  /// Empties the connection: closes the socket, hands back every frame.
  std::deque<Pending> TakeAll() {
    std::deque<Pending> taken;
    taken.swap(pending);
    fd.Reset();
    connecting = false;
    broken = false;
    unsent = 0;
    frames.store(0);
    itineraries.store(0);
    return taken;
  }

  // Loop-thread only.
  std::vector<uint8_t> inbox;
  int failed_dials = 0;  ///< in the current dial series
  Clock::time_point next_dial{};
};

/// Everything the router keeps per shard.
struct ShardRouter::Shard {
  ShardConfig config;
  CircuitBreaker breaker;
  std::vector<std::unique_ptr<Conn>> conns;
  std::atomic<int64_t> requests_ok{0};
  std::atomic<int64_t> requests_failed{0};
  std::atomic<int64_t> pings_ok{0};
  std::atomic<int64_t> pings_failed{0};

  Shard(ShardConfig c, const CircuitBreakerOptions& b)
      : config(std::move(c)), breaker(b) {}

  /// The connection a new frame waits least on: the fewest pending frames,
  /// but one holding an itinerary (milliseconds of planning every frame
  /// behind it waits out) only when every connection holds one.
  Conn& Pick() {
    Conn* best = nullptr;
    std::pair<bool, int64_t> best_rank;
    for (const std::unique_ptr<Conn>& conn : conns) {
      const std::pair<bool, int64_t> rank{
          conn->itineraries.load(std::memory_order_relaxed) > 0,
          conn->frames.load(std::memory_order_relaxed)};
      if (best == nullptr || rank < best_rank) {
        best = conn.get();
        best_rank = rank;
      }
    }
    return *best;
  }

  /// Whether any of the shard's connections holds a frame.
  bool Busy() const {
    for (const std::unique_ptr<Conn>& conn : conns) {
      if (conn->frames.load(std::memory_order_relaxed) > 0) return true;
    }
    return false;
  }
};

/// One router poll loop: the wake pipe, the connections it owns, and when
/// its poll times out. While it scans, sleep_until reads kNever, so every
/// frame queued meanwhile wakes it.
struct ShardRouter::Loop {
  common::WakePipe wake;
  std::vector<Conn*> conns;
  std::atomic<bool> stopping{false};
  std::atomic<int64_t> sleep_until{kNever};
  std::thread thread;
};

ShardRouter::ShardRouter(RouterOptions options)
    : options_(std::move(options)),
      ring_(std::max(1, options_.virtual_nodes)) {}

ShardRouter::~ShardRouter() { Stop(); }

bool ShardRouter::Start(std::string* error) {
  if (running_.load()) {
    if (error) *error = "router already started";
    return false;
  }
  if (options_.shards.empty()) {
    if (error) *error = "router needs at least one shard";
    return false;
  }
  for (const ShardConfig& config : options_.shards) {
    if (config.id.empty()) {
      if (error) *error = "shard id may not be empty";
      return false;
    }
    if (shards_by_id_.count(config.id) != 0) {
      if (error) *error = "duplicate shard id: " + config.id;
      return false;
    }
    auto shard = std::make_unique<Shard>(config, options_.breaker);
    shards_by_id_[config.id] = shard.get();
    shards_.push_back(std::move(shard));
    ring_.AddShard(config.id);
  }
  const int loops = std::clamp(options_.worker_threads, 1, 64);
  for (int i = 0; i < loops; ++i) {
    auto loop = std::make_unique<Loop>();
    if (!loop->wake.valid()) {
      if (error) *error = "router wake pipe failed";
      loops_.clear();
      return false;
    }
    loops_.push_back(std::move(loop));
  }
  // Connections are dealt round-robin across the loops, so a shard's pool
  // spreads over them the way FrameServer deals clients to its IO threads.
  const int64_t pool = std::clamp<int64_t>(options_.pool_size_per_shard, 1, 64);
  size_t next_loop = 0;
  for (auto& shard : shards_) {
    for (int64_t i = 0; i < pool; ++i) {
      auto conn = std::make_unique<Conn>();
      conn->shard = shard.get();
      conn->loop = loops_[next_loop++ % loops_.size()].get();
      conn->loop->conns.push_back(conn.get());
      shard->conns.push_back(std::move(conn));
    }
  }
  running_.store(true);
  for (auto& loop : loops_) {
    Loop* raw = loop.get();
    loop->thread = std::thread([this, raw] { RunLoop(*raw); });
  }
  if (options_.ping_interval_ms > 0) {
    pinger_ = std::thread([this] { RunPinger(); });
  }
  return true;
}

void ShardRouter::Stop() {
  if (!running_.exchange(false)) return;
  { std::lock_guard<std::mutex> lock(pinger_mutex_); }
  pinger_cv_.notify_all();
  if (pinger_.joinable()) pinger_.join();
  for (auto& loop : loops_) {
    loop->stopping.store(true);
    loop->wake.Notify();
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }

  // Every frame still queued or in flight gets a definitive answer — no
  // caller may hang on a connection nobody reads any more.
  for (auto& shard : shards_) {
    for (auto& conn : shard->conns) {
      std::deque<Conn::Pending> orphans;
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        conn->stopped = true;
        orphans = conn->TakeAll();
      }
      for (Conn::Pending& orphan : orphans) AnswerStopped(*orphan.call);
    }
  }
}

std::vector<uint8_t> ShardRouter::RouterError(const std::string& message,
                                              ErrorCode code) {
  router_errors_.fetch_add(1);
  return EncodeErrorFrame(message, code);
}

void ShardRouter::Finish(Call& call, std::vector<uint8_t> reply) {
  if (call.held) held_.fetch_sub(1);
  call.done(std::move(reply));
}

void ShardRouter::AnswerStopped(Call& call) {
  const std::string message = "router stopping";
  Finish(call, call.kind == Call::Kind::kForward
                   ? RouterError(message, ErrorCode::kShardUnavailable)
                   : EncodeErrorFrame(message, ErrorCode::kShardUnavailable));
}

void ShardRouter::HandleFrameAsync(const std::vector<uint8_t>& frame,
                                   FrameCallback done) {
  if (!running_.load()) {
    done(RouterError("router is stopped", ErrorCode::kShardUnavailable));
    return;
  }
  FrameType type = FrameType::kRequest;
  if (PeekFrameType(frame, &type) != DecodeStatus::kOk) {
    done(RouterError("malformed frame", ErrorCode::kBadFrame));
    return;
  }

  // Control frames the router answers itself.
  if (type == FrameType::kPing) {
    uint64_t nonce = 0;
    if (DecodePingFrame(frame, &nonce) != DecodeStatus::kOk) {
      done(RouterError("malformed ping frame", ErrorCode::kBadFrame));
      return;
    }
    done(EncodePongFrame(nonce));
    return;
  }

  auto call = std::make_unique<Call>();
  std::string key;
  if (type == FrameType::kStatsRequest) {
    if (DecodeStatsRequest(frame) != DecodeStatus::kOk) {
      done(RouterError("malformed stats frame", ErrorCode::kBadFrame));
      return;
    }
  } else if (type == FrameType::kItineraryRequest) {
    // Itinerary queries route exactly like recommendations: same
    // (endpoint, user) key — a user's plans land on the shard that holds
    // their cache — same rate limit, same breaker/failover walk. No
    // deadline to rewrite, so the frame always forwards verbatim.
    plan::ItineraryRequest request;
    const DecodeStatus status =
        DecodeItineraryRequest(frame, &call->endpoint, &request);
    if (status != DecodeStatus::kOk) {
      done(RouterError(std::string("itinerary frame rejected: ") +
                           DecodeStatusName(status),
                       ErrorCode::kBadFrame));
      return;
    }
    key = RoutingKey(call->endpoint, request.start.user);
    call->itinerary = true;
  } else if (type == FrameType::kRequest) {
    eval::RecommendRequest request;
    AdmissionClass admission;
    const DecodeStatus status =
        DecodeRecommendRequest(frame, &call->endpoint, &request, &admission);
    if (status != DecodeStatus::kOk) {
      done(RouterError(std::string("request frame rejected: ") +
                           DecodeStatusName(status),
                       ErrorCode::kBadFrame));
      return;
    }
    // Key on (endpoint, user): every request of a user hits the same
    // shard, keeping its inference cache hot there.
    key = RoutingKey(call->endpoint, request.sample.user);
    if (admission.deadline_ms > 0) {
      // A deadline must be rewritten to the REMAINING budget so the shard
      // never believes it has time the router already spent.
      call->deadline_ms = admission.deadline_ms;
      call->rewrite = [endpoint = call->endpoint, request,
                       admission](int64_t remaining) {
        AdmissionClass forwarded = admission;
        forwarded.deadline_ms = remaining;
        return EncodeRecommendRequest(endpoint, request, forwarded);
      };
    }
  } else {
    done(RouterError("frame type not servable by this endpoint",
                     ErrorCode::kBadFrame));
    return;
  }

  if (held_.fetch_add(1) >= options_.queue_depth) {
    held_.fetch_sub(1);
    done(RouterError("router full: queue_depth frames held",
                     ErrorCode::kShedCapacity));
    return;
  }
  call->held = true;
  call->done = std::move(done);

  if (type == FrameType::kStatsRequest) {
    // The cluster roll-up, answered once every reachable shard replied.
    std::shared_ptr<Call> pending(std::move(call));
    PollEndpoints([this, pending](std::vector<WireEndpointStats> rows) {
      WireStatsSnapshot rollup;
      rollup.endpoints = std::move(rows);
      Finish(*pending, EncodeStatsResponse(rollup));
    });
    return;
  }

  frames_routed_.fetch_add(1);
  if (!BucketFor(call->endpoint).TryAcquire()) {
    rate_limited_.fetch_add(1);
    Finish(*call, RouterError("rate limited: endpoint '" + call->endpoint + "'",
                              ErrorCode::kRateLimited));
    return;
  }
  for (const std::string& id :
       ring_.ShardsFor(key, std::max(1, options_.replication))) {
    call->replicas.push_back(shards_by_id_.at(id));
  }
  call->frame = frame;
  Dispatch(std::move(call));
}

void ShardRouter::Dispatch(std::unique_ptr<Call> call) {
  for (; call->replica < call->replicas.size(); ++call->replica) {
    Shard& shard = *call->replicas[call->replica];
    int64_t budget = options_.call_timeout_ms;
    if (call->deadline_ms > 0) {
      const int64_t remaining = call->deadline_ms - ElapsedMs(call->start);
      if (remaining <= 0) {
        deadline_exhausted_.fetch_add(1);
        Finish(*call, RouterError("deadline exhausted at router after failover",
                                  ErrorCode::kShedDeadline));
        return;
      }
      budget = std::min(remaining, budget);
    }
    if (!shard.breaker.Allow()) {
      call->last_error = "shard '" + shard.config.id + "' circuit open";
      continue;
    }
    if (call->attempted) failovers_.fetch_add(1);
    call->attempted = true;
    // Without a deadline the original bytes go out verbatim — bit-identical
    // to direct shard access.
    std::vector<uint8_t> wire =
        Wrap(call->rewrite ? call->rewrite(budget) : call->frame);
    Enqueue(shard.Pick(), std::move(call),
            Clock::now() + std::chrono::milliseconds(std::max<int64_t>(1, budget)),
            std::move(wire));
    return;
  }
  shard_unavailable_.fetch_add(1);
  const std::string message =
      call->replicas.empty()
          ? "no shards configured"
          : "all replicas unavailable for endpoint '" + call->endpoint +
                "': " + call->last_error;
  Finish(*call, RouterError(message, ErrorCode::kShardUnavailable));
}

void ShardRouter::Failover(std::unique_ptr<Call> call, const std::string& why) {
  if (call->kind != Call::Kind::kForward) {
    Finish(*call, EncodeErrorFrame(why, ErrorCode::kShardUnavailable));
    return;
  }
  call->last_error = why;
  ++call->replica;
  Dispatch(std::move(call));
}

void ShardRouter::SendControl(Shard& shard, std::unique_ptr<Call> call,
                              int64_t timeout_ms) {
  std::vector<uint8_t> wire = Wrap(call->frame);
  Enqueue(shard.Pick(), std::move(call),
          Clock::now() + std::chrono::milliseconds(std::max<int64_t>(1, timeout_ms)),
          std::move(wire));
}

void ShardRouter::Enqueue(Conn& conn, std::unique_ptr<Call> call,
                          Clock::time_point deadline,
                          std::vector<uint8_t> wire) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    if (!conn.stopped) {
      conn.Push(Conn::Pending{std::move(call), deadline, std::move(wire)});
      if (conn.fd.valid() && !conn.connecting && !conn.broken) {
        FlushLocked(conn);
      }
      // The loop must act when the connection needs a dial, a send failed,
      // the socket would block, or this frame times out before the loop's
      // planned wake-up.
      wake = !conn.fd.valid() || conn.broken ||
             conn.unsent < conn.pending.size() ||
             ToNs(deadline) < conn.loop->sleep_until.load();
    }
  }
  if (call) {  // the router stopped: the connection was drained for good
    AnswerStopped(*call);
    return;
  }
  if (wake) conn.loop->wake.Notify();
}

void ShardRouter::FlushLocked(Conn& conn) {
  while (conn.unsent < conn.pending.size()) {
    Conn::Pending& entry = conn.pending[conn.unsent];
    while (entry.sent < entry.wire.size()) {
      const ssize_t n =
          ::send(conn.fd.get(), entry.wire.data() + entry.sent,
                 entry.wire.size() - entry.sent, MSG_NOSIGNAL);
      if (n > 0) {
        entry.sent += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      conn.broken = true;
      return;
    }
    ++conn.unsent;
  }
}

void ShardRouter::FailConn(Conn& conn, const std::string& why,
                           bool resend_unwritten) {
  std::deque<Conn::Pending> orphans;
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    orphans = conn.TakeAll();
  }
  conn.inbox.clear();
  conn.failed_dials = 0;
  if (orphans.empty()) return;  // an idle connection closing fails nothing

  Shard& shard = *conn.shard;
  shard.breaker.RecordFailure();  // once per connection, not per frame
  const std::string error = "shard '" + shard.config.id + "' " + why;
  for (Conn::Pending& orphan : orphans) {
    std::unique_ptr<Call> call = std::move(orphan.call);
    if (resend_unwritten && orphan.sent == 0 && !call->resent) {
      // No byte reached the shard, so it cannot have served the frame:
      // the same attempt moves to a fresh connection.
      call->resent = true;
      Enqueue(shard.Pick(), std::move(call), orphan.deadline,
              std::move(orphan.wire));
      continue;
    }
    if (call->kind == Call::Kind::kForward) shard.requests_failed.fetch_add(1);
    if (call->kind == Call::Kind::kPing) shard.pings_failed.fetch_add(1);
    Failover(std::move(call), error);
  }
}

void ShardRouter::Dial(Conn& conn, Clock::time_point now) {
  bool in_progress = false;
  common::UniqueFd fd =
      common::StartConnect(conn.shard->config.address, &in_progress);
  if (!fd.valid()) {
    DialFailed(conn, now);
    return;
  }
  std::lock_guard<std::mutex> lock(conn.mutex);
  conn.fd = std::move(fd);
  conn.connecting = in_progress;
  if (!in_progress) Connected(conn);
}

void ShardRouter::Connected(Conn& conn) {
  conn.connecting = false;
  conn.failed_dials = 0;
  FlushLocked(conn);
}

void ShardRouter::DialFailed(Conn& conn, Clock::time_point now) {
  if (++conn.failed_dials < std::max(1, options_.reconnect_attempts)) {
    const int doublings = std::min(conn.failed_dials - 1, 16);
    conn.next_dial =
        now + std::chrono::milliseconds(
                  std::max<int64_t>(0, options_.reconnect_backoff_ms)
                  << doublings);
    return;
  }
  conn.failed_dials = 0;
  FailConn(conn, "unreachable", /*resend_unwritten=*/false);
}

void ShardRouter::ReadReplies(Conn& conn) {
  bool eof = false;
  for (;;) {
    uint8_t buffer[16384];
    const ssize_t n = ::recv(conn.fd.get(), buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn.inbox.insert(conn.inbox.end(), buffer, buffer + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    eof = true;  // peer closed, or the socket failed
    break;
  }

  size_t offset = 0;
  while (conn.inbox.size() - offset >= sizeof(uint32_t)) {
    const uint32_t length = common::LoadU32Le(conn.inbox.data() + offset);
    if (length > kMaxReplyBytes) {
      FailConn(conn, "sent an unframeable reply", /*resend_unwritten=*/false);
      return;
    }
    if (conn.inbox.size() - offset < sizeof(uint32_t) + length) break;
    const auto begin =
        conn.inbox.begin() + static_cast<ptrdiff_t>(offset + sizeof(uint32_t));
    std::vector<uint8_t> reply(begin, begin + length);
    offset += sizeof(uint32_t) + length;
    if (!CompleteHead(conn, std::move(reply))) return;  // inbox is cleared
  }
  conn.inbox.erase(conn.inbox.begin(),
                   conn.inbox.begin() + static_cast<ptrdiff_t>(offset));

  if (!eof) return;
  {
    // An idle connection the shard closed (restart, idle reap) just goes
    // down quietly; the next frame that needs it dials again.
    std::lock_guard<std::mutex> lock(conn.mutex);
    if (conn.pending.empty()) {
      conn.TakeAll();
      conn.inbox.clear();
      return;
    }
  }
  FailConn(conn, "closed the connection", /*resend_unwritten=*/true);
}

bool ShardRouter::CompleteHead(Conn& conn, std::vector<uint8_t> reply) {
  // Only this loop pops, so the head seen here is the head popped below.
  Call::Kind kind = Call::Kind::kForward;
  uint64_t nonce = 0;
  bool has_head = false;
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    if (conn.unsent > 0) {  // the head was fully written
      has_head = true;
      kind = conn.pending.front().call->kind;
      nonce = conn.pending.front().call->nonce;
    }
  }
  FrameType type = FrameType::kRequest;
  bool expected = has_head && PeekFrameType(reply, &type) == DecodeStatus::kOk;
  bool shard_error = false;
  if (expected) {
    switch (kind) {
      case Call::Kind::kForward:
        if (type == FrameType::kError) {
          std::string message;
          ErrorCode code = ErrorCode::kGeneric;
          expected =
              DecodeErrorFrame(reply, &message, &code) == DecodeStatus::kOk;
          shard_error = true;
        } else {
          // Both reply-shaped frame types are successful replies.
          expected = type == FrameType::kResponse ||
                     type == FrameType::kItineraryResponse;
        }
        break;
      case Call::Kind::kPing: {
        uint64_t echoed = 0;
        expected = DecodePongFrame(reply, &echoed) == DecodeStatus::kOk &&
                   echoed == nonce;
        break;
      }
      case Call::Kind::kStats:
        expected = type == FrameType::kStatsResponse;
        break;
    }
  }
  if (!expected) {
    FailConn(conn, "sent an unexpected reply", /*resend_unwritten=*/false);
    return false;
  }

  std::unique_ptr<Call> call;
  {
    std::lock_guard<std::mutex> lock(conn.mutex);
    call = conn.PopHead();
  }
  Shard& shard = *conn.shard;
  shard.breaker.RecordSuccess();
  switch (call->kind) {
    case Call::Kind::kForward:
      // A shard error frame is its admission decision (shed, unknown
      // endpoint, ...): it passes through verbatim and is never failed
      // over — retrying a deliberate shed elsewhere would defeat shedding.
      shard.requests_ok.fetch_add(1);
      (shard_error ? shard_errors_ : responses_ok_).fetch_add(1);
      break;
    case Call::Kind::kPing:
      shard.pings_ok.fetch_add(1);
      break;
    case Call::Kind::kStats:
      break;
  }
  Finish(*call, std::move(reply));
  return true;
}

void ShardRouter::RunLoop(Loop& loop) {
  std::vector<pollfd> fds;
  std::vector<Conn*> polled;
  while (!loop.stopping.load()) {
    loop.sleep_until.store(kNever);
    const Clock::time_point now = Clock::now();
    // Even with nothing due the loop wakes once per call_timeout_ms: a frame
    // queued without a deadline is then never due before the loop's wake-up,
    // so queuing one needs no wake-up of its own.
    Clock::time_point wake_at =
        now + std::chrono::milliseconds(
                  std::max<int64_t>(1, options_.call_timeout_ms));
    fds.assign(1, pollfd{loop.wake.read_fd(), POLLIN, 0});
    polled.clear();
    bool acted = false;
    for (Conn* conn : loop.conns) {
      Clock::time_point earliest = Clock::time_point::max();
      bool broken = false;
      bool connecting = false;
      bool want_out = false;
      bool has_pending = false;
      int fd = -1;
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        for (const Conn::Pending& entry : conn->pending) {
          earliest = std::min(earliest, entry.deadline);
        }
        broken = conn->broken;
        connecting = conn->connecting;
        fd = conn->fd.get();
        has_pending = !conn->pending.empty();
        want_out = conn->unsent < conn->pending.size();
      }
      if (broken) {
        FailConn(*conn, "connection failed", /*resend_unwritten=*/true);
        acted = true;
        continue;
      }
      if (earliest <= now) {
        // A late reply would shift the FIFO: the connection goes, and every
        // frame on it moves on with its own remaining budget. A dial still
        // under way ends here too, so the frames' deadlines bound it.
        FailConn(*conn, "timed out", /*resend_unwritten=*/false);
        acted = true;
        continue;
      }
      wake_at = std::min(wake_at, earliest);
      if (fd < 0) {
        if (!has_pending) continue;
        if (conn->next_dial <= now) {
          Dial(*conn, now);
          acted = true;
        } else {
          wake_at = std::min(wake_at, conn->next_dial);
        }
        continue;
      }
      // A connect under way reports its end as POLLOUT (or an error).
      const short events =
          connecting ? POLLOUT
                     : static_cast<short>(POLLIN | (want_out ? POLLOUT : 0));
      fds.push_back(pollfd{fd, events, 0});
      polled.push_back(conn);
    }
    if (acted) continue;  // state moved on: scan again before sleeping

    loop.sleep_until.store(ToNs(wake_at));
    // Rounded up, so the loop never wakes just short of a deadline.
    const int64_t timeout_ms = std::clamp<int64_t>(
        std::chrono::ceil<std::chrono::milliseconds>(wake_at - now).count(), 0,
        std::numeric_limits<int>::max());
    const int rc =
        ::poll(fds.data(), fds.size(), static_cast<int>(timeout_ms));
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) loop.wake.Drain();
    for (size_t i = 0; i < polled.size(); ++i) {
      Conn& conn = *polled[i];
      const short revents = fds[i + 1].revents;
      if (revents == 0) continue;
      {
        std::unique_lock<std::mutex> lock(conn.mutex);
        if (conn.connecting) {  // the dial's connect ended
          if (common::ConnectResult(conn.fd.get()) == 0) {
            Connected(conn);
            continue;
          }
          conn.fd.Reset();
          conn.connecting = false;
          lock.unlock();
          DialFailed(conn, Clock::now());
          continue;
        }
      }
      if ((revents & POLLOUT) != 0) {
        std::lock_guard<std::mutex> lock(conn.mutex);
        FlushLocked(conn);
      }
      if ((revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) != 0) {
        ReadReplies(conn);
      }
    }
  }
}

void ShardRouter::RunPinger() {
  while (running_.load()) {
    for (auto& shard : shards_) {
      if (!running_.load()) return;
      // While the shard holds frames, their replies and timeouts are its
      // health signal; a ping would only queue behind them.
      if (shard->Busy()) continue;
      // The probe rides the breaker like traffic does: an open breaker
      // refuses until its cooldown, then the ping IS the half-open probe.
      if (!shard->breaker.Allow()) continue;
      auto call = std::make_unique<Call>();
      call->kind = Call::Kind::kPing;
      call->nonce = ping_nonce_.fetch_add(1);
      call->frame = EncodePingFrame(call->nonce);
      call->done = [](std::vector<uint8_t>) {};  // counted where it lands
      // The shard was idle, so the ping heads its connection, or follows a
      // frame that raced it there with an earlier deadline. Gateways answer
      // pings before queueing, so the ping times out, and fails the frames
      // behind it, only when the shard has answered nothing for the
      // timeout of a frame without a deadline.
      SendControl(*shard, std::move(call), options_.call_timeout_ms);
    }
    std::unique_lock<std::mutex> lock(pinger_mutex_);
    pinger_cv_.wait_for(lock,
                        std::chrono::milliseconds(options_.ping_interval_ms),
                        [this] { return !running_.load(); });
  }
}

void ShardRouter::PollEndpoints(
    std::function<void(std::vector<WireEndpointStats>)> done) {
  struct Gather {
    std::mutex mutex;
    size_t left = 0;
    std::vector<WireStatsSnapshot> snapshots;  ///< empty when unreachable
    std::function<void(std::vector<WireEndpointStats>)> done;
  };
  if (shards_.empty()) {
    done({});
    return;
  }
  auto gather = std::make_shared<Gather>();
  gather->left = shards_.size();
  gather->snapshots.resize(shards_.size());
  gather->done = std::move(done);
  auto arrive = [gather](size_t index, const std::vector<uint8_t>& reply) {
    WireStatsSnapshot snapshot;
    const bool ok = DecodeStatsResponse(reply, &snapshot) == DecodeStatus::kOk;
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(gather->mutex);
      if (ok) gather->snapshots[index] = std::move(snapshot);
      last = --gather->left == 0;
    }
    // Merged in shard order, however the polls returned.
    if (last) gather->done(MergeEndpoints(gather->snapshots));
  };
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    if (!shard.breaker.Allow()) {
      arrive(i, {});
      continue;
    }
    auto call = std::make_unique<Call>();
    call->kind = Call::Kind::kStats;
    call->frame = EncodeStatsRequest();
    call->done = [arrive, i](std::vector<uint8_t> reply) { arrive(i, reply); };
    SendControl(shard, std::move(call), options_.call_timeout_ms);
  }
}

ClusterStats ShardRouter::Snapshot() {
  ClusterStats stats;
  stats.frames_routed = frames_routed_.load();
  stats.responses_ok = responses_ok_.load();
  stats.shard_errors = shard_errors_.load();
  stats.router_errors = router_errors_.load();
  stats.failovers = failovers_.load();
  stats.rate_limited = rate_limited_.load();
  stats.shard_unavailable = shard_unavailable_.load();
  stats.deadline_exhausted = deadline_exhausted_.load();
  for (auto& shard : shards_) {
    ShardHealth health;
    health.id = shard->config.id;
    health.address = shard->config.address.ToString();
    health.breaker = shard->breaker.state();
    health.breaker_trips = shard->breaker.trips();
    health.requests_ok = shard->requests_ok.load();
    health.requests_failed = shard->requests_failed.load();
    health.pings_ok = shard->pings_ok.load();
    health.pings_failed = shard->pings_failed.load();
    stats.shards.push_back(std::move(health));
  }
  auto rows = std::make_shared<std::promise<std::vector<WireEndpointStats>>>();
  std::future<std::vector<WireEndpointStats>> ready = rows->get_future();
  PollEndpoints([rows](std::vector<WireEndpointStats> merged) {
    rows->set_value(std::move(merged));
  });
  stats.endpoints = ready.get();
  return stats;
}

TokenBucket& ShardRouter::BucketFor(const std::string& endpoint) {
  std::lock_guard<std::mutex> lock(buckets_mutex_);
  auto it = buckets_.find(endpoint);
  if (it == buckets_.end()) {
    it = buckets_
             .emplace(endpoint,
                      std::make_unique<TokenBucket>(options_.rate_limit_qps,
                                                    options_.rate_limit_burst))
             .first;
  }
  return *it->second;
}

}  // namespace tspn::serve::cluster
