#include "serve/cluster/shard_router.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>


namespace tspn::serve::cluster {

namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedMs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               since)
      .count();
}

}  // namespace

std::string RoutingKey(const std::string& endpoint, int32_t user) {
  return endpoint + "|" + std::to_string(user);
}

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
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = false;
  }
  running_.store(true);
  const int workers = std::clamp(options_.worker_threads, 1, 64);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { RunWorker(); });
  }
  if (options_.ping_interval_ms > 0) {
    pinger_ = std::thread([this] { RunPinger(); });
  }
  return true;
}

void ShardRouter::Stop() {
  if (!running_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  pinger_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (pinger_.joinable()) pinger_.join();

  // Anything still queued gets a definitive answer — no caller may hang on
  // a frame the workers will never pick up.
  std::deque<Job> orphans;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    orphans.swap(queue_);
  }
  for (Job& job : orphans) {
    router_errors_.fetch_add(1);
    job.done(EncodeErrorFrame("router stopping", ErrorCode::kShardUnavailable));
  }

  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->pool_mutex);
    shard->idle.clear();
  }
}

void ShardRouter::HandleFrameAsync(const std::vector<uint8_t>& frame,
                                   FrameCallback done) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!stopping_ && running_.load() &&
        static_cast<int64_t>(queue_.size()) < options_.queue_depth) {
      queue_.push_back(Job{frame, std::move(done)});
      queue_cv_.notify_one();
      return;
    }
  }
  if (!running_.load()) {
    router_errors_.fetch_add(1);
    done(EncodeErrorFrame("router is stopped", ErrorCode::kShardUnavailable));
    return;
  }
  router_errors_.fetch_add(1);
  done(EncodeErrorFrame("router queue full", ErrorCode::kShedCapacity));
}

void ShardRouter::RunWorker() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job.done(Route(job.frame));
  }
}

std::vector<uint8_t> ShardRouter::Route(const std::vector<uint8_t>& frame) {
  FrameType type = FrameType::kRequest;
  if (PeekFrameType(frame, &type) != DecodeStatus::kOk) {
    router_errors_.fetch_add(1);
    return EncodeErrorFrame("malformed frame", ErrorCode::kBadFrame);
  }

  // Control frames the router answers itself.
  if (type == FrameType::kPing) {
    uint64_t nonce = 0;
    if (DecodePingFrame(frame, &nonce) != DecodeStatus::kOk) {
      router_errors_.fetch_add(1);
      return EncodeErrorFrame("malformed ping frame", ErrorCode::kBadFrame);
    }
    return EncodePongFrame(nonce);
  }
  if (type == FrameType::kStatsRequest) {
    if (DecodeStatsRequest(frame) != DecodeStatus::kOk) {
      router_errors_.fetch_add(1);
      return EncodeErrorFrame("malformed stats frame", ErrorCode::kBadFrame);
    }
    WireStatsSnapshot rollup;
    rollup.endpoints = Snapshot().endpoints;
    return EncodeStatsResponse(rollup);
  }
  if (type == FrameType::kItineraryRequest) {
    // Itinerary queries route exactly like recommendations: same
    // (endpoint, user) key — a user's plans land on the shard that holds
    // their cache — same rate limit, same breaker/failover walk. No
    // deadline to rewrite, so the frame always forwards verbatim.
    std::string endpoint;
    plan::ItineraryRequest request;
    const DecodeStatus status =
        DecodeItineraryRequest(frame, &endpoint, &request);
    if (status != DecodeStatus::kOk) {
      router_errors_.fetch_add(1);
      return EncodeErrorFrame(std::string("itinerary frame rejected: ") +
                                  DecodeStatusName(status),
                              ErrorCode::kBadFrame);
    }
    frames_routed_.fetch_add(1);
    if (!BucketFor(endpoint).TryAcquire()) {
      rate_limited_.fetch_add(1);
      router_errors_.fetch_add(1);
      return EncodeErrorFrame("rate limited: endpoint '" + endpoint + "'",
                              ErrorCode::kRateLimited);
    }
    return ForwardWithFailover(frame, endpoint,
                               RoutingKey(endpoint, request.start.user),
                               /*deadline_ms=*/0, /*rewrite=*/nullptr);
  }

  if (type != FrameType::kRequest) {
    router_errors_.fetch_add(1);
    return EncodeErrorFrame("frame type not servable by this endpoint",
                            ErrorCode::kBadFrame);
  }

  std::string endpoint;
  eval::RecommendRequest request;
  AdmissionClass admission;
  const DecodeStatus status =
      DecodeRecommendRequest(frame, &endpoint, &request, &admission);
  if (status != DecodeStatus::kOk) {
    router_errors_.fetch_add(1);
    return EncodeErrorFrame(std::string("request frame rejected: ") +
                                DecodeStatusName(status),
                            ErrorCode::kBadFrame);
  }

  frames_routed_.fetch_add(1);

  if (!BucketFor(endpoint).TryAcquire()) {
    rate_limited_.fetch_add(1);
    router_errors_.fetch_add(1);
    return EncodeErrorFrame("rate limited: endpoint '" + endpoint + "'",
                            ErrorCode::kRateLimited);
  }

  return RouteRequest(frame, endpoint, request, admission);
}

std::vector<uint8_t> ShardRouter::RouteRequest(
    const std::vector<uint8_t>& frame, const std::string& endpoint,
    const eval::RecommendRequest& request, const AdmissionClass& admission) {
  // Key on (endpoint, user): every request of a user hits the same shard,
  // keeping its inference cache hot there.
  const std::string key = RoutingKey(endpoint, request.sample.user);
  const bool has_deadline = admission.deadline_ms > 0;
  std::function<std::vector<uint8_t>(int64_t)> rewrite;
  if (has_deadline) {
    // A deadline must be rewritten to the REMAINING budget so the shard
    // never believes it has time the router already spent.
    rewrite = [&endpoint, &request, &admission](int64_t remaining) {
      AdmissionClass forwarded = admission;
      forwarded.deadline_ms = remaining;
      return EncodeRecommendRequest(endpoint, request, forwarded);
    };
  }
  return ForwardWithFailover(frame, endpoint, key,
                             has_deadline ? admission.deadline_ms : 0, rewrite);
}

std::vector<uint8_t> ShardRouter::ForwardWithFailover(
    const std::vector<uint8_t>& frame, const std::string& endpoint,
    const std::string& key, int64_t deadline_ms,
    const std::function<std::vector<uint8_t>(int64_t)>& rewrite) {
  const std::vector<std::string> replicas =
      ring_.ShardsFor(key, std::max(1, options_.replication));
  if (replicas.empty()) {
    shard_unavailable_.fetch_add(1);
    router_errors_.fetch_add(1);
    return EncodeErrorFrame("no shards configured",
                            ErrorCode::kShardUnavailable);
  }

  const Clock::time_point start = Clock::now();
  const bool has_deadline = deadline_ms > 0;
  std::string last_error = "no replica attempted";
  bool attempted = false;

  for (const std::string& replica_id : replicas) {
    Shard& shard = *shards_by_id_.at(replica_id);

    int64_t remaining = options_.call_timeout_ms;
    if (has_deadline) {
      remaining = deadline_ms - ElapsedMs(start);
      if (remaining <= 0) {
        deadline_exhausted_.fetch_add(1);
        router_errors_.fetch_add(1);
        return EncodeErrorFrame("deadline exhausted at router after failover",
                                ErrorCode::kShedDeadline);
      }
      remaining = std::min(remaining, options_.call_timeout_ms);
    }

    if (!shard.breaker.Allow()) {
      last_error = "shard '" + replica_id + "' circuit open";
      continue;
    }
    if (attempted) failovers_.fetch_add(1);
    attempted = true;

    std::unique_ptr<FrameClient> client = Checkout(shard);
    if (!client) {
      shard.breaker.RecordFailure();
      shard.requests_failed.fetch_add(1);
      last_error = "shard '" + replica_id + "' unreachable";
      continue;
    }

    // Forward the original bytes verbatim whenever the frame carries no
    // deadline — bit-identical to direct shard access.
    const std::vector<uint8_t>* forward = &frame;
    std::vector<uint8_t> rewritten;
    if (has_deadline) {
      rewritten = rewrite(remaining);
      forward = &rewritten;
    }

    client->set_recv_timeout_ms(std::max<int64_t>(1, remaining));
    FrameClient::Reply reply = client->CallTyped(*forward);
    switch (reply.kind) {
      case FrameClient::Reply::Kind::kResponse:
        shard.breaker.RecordSuccess();
        shard.requests_ok.fetch_add(1);
        Checkin(shard, std::move(client));
        responses_ok_.fetch_add(1);
        return std::move(reply.frame);
      case FrameClient::Reply::Kind::kServerError:
        // The shard ANSWERED — its admission decision (shed, unknown
        // endpoint, ...) passes through verbatim and is never failed over:
        // retrying a deliberate shed elsewhere would defeat load shedding.
        shard.breaker.RecordSuccess();
        shard.requests_ok.fetch_add(1);
        Checkin(shard, std::move(client));
        shard_errors_.fetch_add(1);
        return std::move(reply.frame);
      case FrameClient::Reply::Kind::kTimeout:
        // The reply may still arrive later and would desync the pooled
        // connection's request/reply pairing — drop it, don't check in.
        client->Close();
        shard.breaker.RecordFailure();
        shard.requests_failed.fetch_add(1);
        last_error = "shard '" + replica_id + "' timed out";
        continue;
      case FrameClient::Reply::Kind::kTransport:
        shard.breaker.RecordFailure();
        shard.requests_failed.fetch_add(1);
        last_error = "shard '" + replica_id + "' transport failure";
        continue;
    }
  }

  shard_unavailable_.fetch_add(1);
  router_errors_.fetch_add(1);
  return EncodeErrorFrame("all replicas unavailable for endpoint '" +
                              endpoint + "': " + last_error,
                          ErrorCode::kShardUnavailable);
}

std::unique_ptr<FrameClient> ShardRouter::Checkout(Shard& shard) {
  {
    std::lock_guard<std::mutex> lock(shard.pool_mutex);
    while (!shard.idle.empty()) {
      std::unique_ptr<FrameClient> client = std::move(shard.idle.back());
      shard.idle.pop_back();
      if (client->connected()) return client;
    }
  }
  auto client = std::make_unique<FrameClient>();
  client->set_auto_reconnect(options_.reconnect_attempts,
                             options_.reconnect_backoff_ms);
  if (!client->Connect(shard.config.address)) return nullptr;
  return client;
}

void ShardRouter::Checkin(Shard& shard, std::unique_ptr<FrameClient> client) {
  if (!client || !client->connected()) return;
  std::lock_guard<std::mutex> lock(shard.pool_mutex);
  if (static_cast<int64_t>(shard.idle.size()) < options_.pool_size_per_shard) {
    shard.idle.push_back(std::move(client));
  }
}

bool ShardRouter::PingShard(Shard& shard) {
  std::unique_ptr<FrameClient> client = Checkout(shard);
  if (!client) {
    shard.breaker.RecordFailure();
    shard.pings_failed.fetch_add(1);
    return false;
  }
  const uint64_t nonce = ping_nonce_.fetch_add(1);
  client->set_recv_timeout_ms(
      std::max<int64_t>(1, std::min(options_.call_timeout_ms,
                                    std::max<int64_t>(
                                        options_.ping_interval_ms, 1))));
  bool ok = client->SendFrame(EncodePingFrame(nonce));
  if (ok) {
    std::vector<uint8_t> reply;
    uint64_t echoed = 0;
    ok = client->RecvFrameTimed(&reply) == FrameClient::RecvStatus::kOk &&
         DecodePongFrame(reply, &echoed) == DecodeStatus::kOk &&
         echoed == nonce;
  }
  if (ok) {
    shard.breaker.RecordSuccess();
    shard.pings_ok.fetch_add(1);
    Checkin(shard, std::move(client));
  } else {
    client->Close();  // a late pong must not desync a pooled connection
    shard.breaker.RecordFailure();
    shard.pings_failed.fetch_add(1);
  }
  return ok;
}

void ShardRouter::RunPinger() {
  while (running_.load()) {
    for (auto& shard : shards_) {
      if (!running_.load()) return;
      // The probe rides the breaker like traffic does: an open breaker
      // refuses until its cooldown, then the ping IS the half-open probe.
      if (!shard->breaker.Allow()) continue;
      PingShard(*shard);
    }
    std::unique_lock<std::mutex> lock(pinger_mutex_);
    pinger_cv_.wait_for(lock,
                        std::chrono::milliseconds(options_.ping_interval_ms),
                        [this] { return !running_.load(); });
  }
}

bool ShardRouter::PollShardStats(Shard& shard, WireStatsSnapshot* out) {
  if (!shard.breaker.Allow()) return false;
  std::unique_ptr<FrameClient> client = Checkout(shard);
  if (!client) {
    shard.breaker.RecordFailure();
    return false;
  }
  client->set_recv_timeout_ms(std::max<int64_t>(1, options_.call_timeout_ms));
  bool ok = client->SendFrame(EncodeStatsRequest());
  if (ok) {
    std::vector<uint8_t> reply;
    ok = client->RecvFrameTimed(&reply) == FrameClient::RecvStatus::kOk &&
         DecodeStatsResponse(reply, out) == DecodeStatus::kOk;
  }
  if (ok) {
    shard.breaker.RecordSuccess();
    Checkin(shard, std::move(client));
  } else {
    client->Close();
    shard.breaker.RecordFailure();
  }
  return ok;
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

  // Endpoint roll-up: sum counters and qps across shards; take the max of
  // the percentiles (the conservative "worst shard" cluster latency).
  std::unordered_map<std::string, size_t> row_index;
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

    WireStatsSnapshot snapshot;
    if (!PollShardStats(*shard, &snapshot)) continue;
    for (const WireEndpointStats& row : snapshot.endpoints) {
      auto [it, inserted] =
          row_index.emplace(row.endpoint, stats.endpoints.size());
      if (inserted) {
        stats.endpoints.push_back(row);
        continue;
      }
      WireEndpointStats& merged = stats.endpoints[it->second];
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
