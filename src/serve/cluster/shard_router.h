#ifndef TSPN_SERVE_CLUSTER_SHARD_ROUTER_H_
#define TSPN_SERVE_CLUSTER_SHARD_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/net.h"
#include "serve/cluster/circuit_breaker.h"
#include "serve/cluster/hash_ring.h"
#include "serve/cluster/token_bucket.h"
#include "serve/codec.h"
#include "serve/frame_client.h"
#include "serve/frame_handler.h"

namespace tspn::serve::cluster {

/// The ring key the router hashes for a request: "endpoint|user". Exposed
/// so drivers (tests, cluster_demo) can predict which shard owns a key —
/// e.g. to kill exactly the owner and assert failover — via a HashRing
/// built with the same shard ids and virtual-node count.
std::string RoutingKey(const std::string& endpoint, int32_t user);

/// One shard process the router forwards to: a stable id (its position on
/// the hash ring — renaming a shard remaps its keyspace) and the address
/// its FrameServer listens on (TCP or the unix-domain fast path).
struct ShardConfig {
  std::string id;
  common::SocketAddress address;
};

/// Router tuning, set by the caller in code.
struct RouterOptions {
  std::vector<ShardConfig> shards;

  int virtual_nodes = 64;  ///< virtual nodes per shard on the ring

  /// Replicas per key: 1 routes each key to exactly its owner; N lets hot
  /// endpoints fan reads out across the N distinct shards clockwise from
  /// the key, and gives failover somewhere to go.
  int replication = 1;

  int worker_threads = 4;          ///< routing worker threads
  int64_t queue_depth = 256;       ///< bounded routing queue
  int64_t ping_interval_ms = 250;  ///< health ping interval; 0 disables
  /// Per-shard call timeout when the request carries no deadline.
  int64_t call_timeout_ms = 2000;
  int64_t pool_size_per_shard = 2;  ///< pooled connections per shard
  CircuitBreakerOptions breaker;

  /// Per-endpoint token-bucket rate limit; <= 0 disables. Every endpoint
  /// gets its own bucket at this rate.
  double rate_limit_qps = 0.0;
  double rate_limit_burst = 16.0;

  /// FrameClient auto-reconnect budget for pooled shard connections.
  int reconnect_attempts = 2;
  int64_t reconnect_backoff_ms = 20;
};

/// Health + traffic counters for one shard, as seen from the router.
struct ShardHealth {
  std::string id;
  std::string address;
  CircuitBreaker::State breaker = CircuitBreaker::State::kClosed;
  int64_t breaker_trips = 0;
  int64_t requests_ok = 0;      ///< forwarded calls answered with a frame
  int64_t requests_failed = 0;  ///< connect/transport/timeout failures
  int64_t pings_ok = 0;
  int64_t pings_failed = 0;
};

/// The cluster roll-up: router-side counters, per-shard health, and the
/// per-endpoint stats rows aggregated across every reachable shard
/// (summed counters/qps; max percentiles — the conservative cluster view).
struct ClusterStats {
  int64_t frames_routed = 0;       ///< request frames accepted for routing
  int64_t responses_ok = 0;        ///< forwarded and answered with a response
  int64_t shard_errors = 0;        ///< shard-produced error frames passed through
  int64_t router_errors = 0;       ///< error frames the router itself produced
  int64_t failovers = 0;           ///< attempts routed past a failed replica
  int64_t rate_limited = 0;        ///< kRateLimited refusals
  int64_t shard_unavailable = 0;   ///< kShardUnavailable refusals
  int64_t deadline_exhausted = 0;  ///< budget ran out before/between attempts
  std::vector<ShardHealth> shards;
  std::vector<WireEndpointStats> endpoints;
};

/// The router tier: a FrameHandler that forwards TSWP request frames to
/// shard processes over serve::FrameClient connections, so a FrameServer
/// constructed over a ShardRouter IS the cluster front-end.
///
/// Routing: a request's key is (endpoint, user_id) — every trajectory of a
/// user lands on the same shard, keeping its inference caches hot — mapped
/// through a consistent-hash ring to `replication` distinct shards. The
/// primary is tried first; on connect failure, transport error or timeout
/// the router fails over to the next replica, honouring the request's
/// remaining deadline_ms budget (each hop forwards only what is left; a
/// request without a deadline gets call_timeout_ms per hop). A
/// shard-produced error frame (shed, unknown endpoint, ...) is a VALID
/// reply — it is passed through verbatim, never failed over, so shard
/// admission control stays end-to-end visible. When every replica is down
/// the caller gets a typed kShardUnavailable error; when the per-endpoint
/// token bucket is empty, kRateLimited.
///
/// Health: a pinger thread probes every shard each ping_interval_ms with a
/// kPing frame through the same circuit breaker traffic uses; the breaker
/// (closed -> open -> half-open) makes a dead shard cost nothing after
/// `failure_threshold` failures and auto-recovers via single probes.
///
/// Threading: HandleFrameAsync enqueues into a bounded queue drained by
/// `worker_threads` routing workers (a full queue sheds with
/// kShedCapacity, mirroring engine admission). Forwarding is synchronous
/// inside a worker — bounded by the deadline/timeout — so one slow shard
/// can stall at most `worker_threads` frames, not the IO loops.
class ShardRouter : public FrameHandler {
 public:
  explicit ShardRouter(RouterOptions options);
  ~ShardRouter() override;

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Builds the ring, spawns workers + the health pinger. False with
  /// *error set on empty/duplicate shard config. Does NOT require shards
  /// to be up — the breaker discovers liveness.
  bool Start(std::string* error = nullptr);

  /// Refuses new frames, completes everything queued with a typed error,
  /// joins workers/pinger, closes every pooled connection. Idempotent.
  void Stop();

  bool running() const { return running_.load(); }

  /// FrameHandler: enqueue for the routing workers; `done` runs exactly
  /// once (synchronously only when shedding or stopped).
  void HandleFrameAsync(const std::vector<uint8_t>& frame,
                        FrameCallback done) override;

  /// Synchronous routing core (what the workers run): request frames are
  /// forwarded with failover, pings answered locally, stats requests
  /// answered with the aggregated cluster view. Blocking — bounded by the
  /// deadline budget / call timeout; callers wanting the async path go
  /// through HandleFrameAsync.
  std::vector<uint8_t> Route(const std::vector<uint8_t>& frame);

  /// Router counters + shard health (cheap, local) plus the per-endpoint
  /// roll-up polled from every reachable shard (one stats call each).
  ClusterStats Snapshot();

  const RouterOptions& options() const { return options_; }

 private:
  /// Everything the router keeps per shard. The connection pool hands out
  /// exclusive FrameClients (they are not thread-safe); a client is
  /// returned only when still connected, so the pool never caches a
  /// poisoned connection.
  struct Shard {
    ShardConfig config;
    CircuitBreaker breaker;
    std::mutex pool_mutex;
    std::vector<std::unique_ptr<FrameClient>> idle;
    std::atomic<int64_t> requests_ok{0};
    std::atomic<int64_t> requests_failed{0};
    std::atomic<int64_t> pings_ok{0};
    std::atomic<int64_t> pings_failed{0};

    explicit Shard(ShardConfig c, const CircuitBreakerOptions& b)
        : config(std::move(c)), breaker(b) {}
  };

  struct Job {
    std::vector<uint8_t> frame;
    FrameCallback done;
  };

  std::unique_ptr<FrameClient> Checkout(Shard& shard);
  void Checkin(Shard& shard, std::unique_ptr<FrameClient> client);

  /// One forwarded request with ring lookup, budget accounting, breaker
  /// checks and replica failover.
  std::vector<uint8_t> RouteRequest(const std::vector<uint8_t>& frame,
                                    const std::string& endpoint,
                                    const eval::RecommendRequest& request,
                                    const AdmissionClass& admission);

  /// The shared forwarding core under RouteRequest and the itinerary
  /// path: walks `key`'s replicas on the ring (breaker gate, pooled
  /// checkout, timed call), passing shard answers — responses AND error
  /// frames — through verbatim, failing over only on timeout/transport
  /// trouble. `deadline_ms > 0` budgets the walk and `rewrite(remaining)`
  /// re-encodes the frame with the remaining budget before each send;
  /// `deadline_ms <= 0` forwards the original bytes verbatim (`rewrite`
  /// may be null then).
  std::vector<uint8_t> ForwardWithFailover(
      const std::vector<uint8_t>& frame, const std::string& endpoint,
      const std::string& key, int64_t deadline_ms,
      const std::function<std::vector<uint8_t>(int64_t)>& rewrite);

  /// Sends one ping on a pooled connection; updates breaker + counters.
  bool PingShard(Shard& shard);

  /// Polls one shard's stats; false when unreachable.
  bool PollShardStats(Shard& shard, WireStatsSnapshot* out);

  TokenBucket& BucketFor(const std::string& endpoint);

  void RunWorker();
  void RunPinger();

  const RouterOptions options_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::string, Shard*> shards_by_id_;

  std::mutex buckets_mutex_;
  std::map<std::string, std::unique_ptr<TokenBucket>> buckets_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;

  std::atomic<bool> running_{false};
  std::vector<std::thread> workers_;
  std::thread pinger_;
  std::mutex pinger_mutex_;
  std::condition_variable pinger_cv_;

  std::atomic<uint64_t> ping_nonce_{1};
  std::atomic<int64_t> frames_routed_{0};
  std::atomic<int64_t> responses_ok_{0};
  std::atomic<int64_t> shard_errors_{0};
  std::atomic<int64_t> router_errors_{0};
  std::atomic<int64_t> failovers_{0};
  std::atomic<int64_t> rate_limited_{0};
  std::atomic<int64_t> shard_unavailable_{0};
  std::atomic<int64_t> deadline_exhausted_{0};
};

}  // namespace tspn::serve::cluster

#endif  // TSPN_SERVE_CLUSTER_SHARD_ROUTER_H_
