#ifndef TSPN_SERVE_CLUSTER_SHARD_ROUTER_H_
#define TSPN_SERVE_CLUSTER_SHARD_ROUTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/net.h"
#include "serve/cluster/circuit_breaker.h"
#include "serve/cluster/hash_ring.h"
#include "serve/cluster/token_bucket.h"
#include "serve/codec.h"
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

  /// Router poll loops. Each owns a share of the shard connections (dealt
  /// round-robin), reads their replies and runs the frames' callbacks.
  int worker_threads = 4;
  /// Frames the router holds at once, queued for a connection or in flight
  /// on one (client frames only: pings it answers itself are not held). A
  /// frame past it is answered kShedCapacity on the calling thread.
  int64_t queue_depth = 256;
  int64_t ping_interval_ms = 250;  ///< health ping interval; 0 disables
  /// Per-shard call timeout when the request carries no deadline.
  int64_t call_timeout_ms = 2000;
  /// Multiplexed connections per shard, each carrying many frames in
  /// flight; a frame goes to the one with the fewest pending frames, one
  /// holding an itinerary last.
  int64_t pool_size_per_shard = 2;
  CircuitBreakerOptions breaker;

  /// Per-endpoint token-bucket rate limit; <= 0 disables. Every endpoint
  /// gets its own bucket at this rate.
  double rate_limit_qps = 0.0;
  double rate_limit_burst = 16.0;

  /// Dials a shard connection makes, when it is down and a frame needs it,
  /// before its waiting frames fail over: max(1, reconnect_attempts), the
  /// n-th retry reconnect_backoff_ms x 2^(n-1) after the previous dial.
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
/// shard processes over multiplexed shard connections, so a FrameServer
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
/// Forwarding is asynchronous. HandleFrameAsync decodes, rate-limits, looks
/// up the ring and gates on the breaker on the calling thread, then writes
/// the frame to the shard connection with the fewest pending frames (one
/// holding an itinerary, whose reply takes milliseconds, only when every
/// connection holds one) and returns. Each
/// connection carries many frames in flight; the shard's FrameServer
/// answers strictly in order per connection, so the poll loop owning the
/// connection matches each reply to the head of its FIFO of pending frames
/// and runs that frame's callback. No thread waits on a
/// reply. A frame that times out closes its connection (a late reply would
/// shift the FIFO): every frame pending there fails over with its own
/// remaining budget, and the breaker records one failure for the
/// connection. A frame none of whose bytes reached a connection that was
/// lost is resent once on a fresh one; a written frame never goes to the
/// same shard twice.
///
/// Health: a pinger thread sends every shard that holds no frames a kPing
/// frame each ping_interval_ms, through the same connections and circuit
/// breaker traffic uses, timed out as a frame without a deadline is; a
/// busy shard's replies are its health signal. The breaker (closed -> open
/// -> half-open) makes a dead shard cost nothing after `failure_threshold`
/// failed connections and auto-recovers via single probes. Dials never
/// block a poll loop: the connect runs on a non-blocking socket, bounded
/// by the waiting frames' deadlines.
///
/// Threads: `worker_threads` poll loops plus the pinger, however many
/// frames are in flight.
class ShardRouter : public FrameHandler {
 public:
  explicit ShardRouter(RouterOptions options);
  ~ShardRouter() override;

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Builds the ring and the shard connections, spawns the poll loops + the
  /// health pinger. False with *error set on empty/duplicate shard config.
  /// Does NOT require shards to be up — connections dial on first use and
  /// the breaker discovers liveness.
  bool Start(std::string* error = nullptr);

  /// Refuses new frames, joins the poll loops and the pinger, closes every
  /// shard connection and answers every frame still queued or in flight
  /// with a typed kShardUnavailable error. Idempotent.
  void Stop();

  bool running() const { return running_.load(); }

  /// FrameHandler: request and itinerary frames are forwarded with
  /// failover, pings answered locally, stats requests answered with the
  /// cluster roll-up once every reachable shard has answered its poll.
  /// Never blocks; `done` runs exactly once, on the calling thread when the
  /// router answers at once (malformed, ping, rate limited, shed, stopped)
  /// and otherwise on a poll loop.
  void HandleFrameAsync(const std::vector<uint8_t>& frame,
                        FrameCallback done) override;

  /// Router counters + shard health (cheap, local) plus the per-endpoint
  /// roll-up polled from every reachable shard. Blocks until those polls
  /// answer (each bounded by call_timeout_ms); for in-process callers, not
  /// a poll loop.
  ClusterStats Snapshot();

  const RouterOptions& options() const { return options_; }

 private:
  struct Call;
  struct Conn;
  struct Loop;
  struct Shard;
  using Clock = std::chrono::steady_clock;

  /// Walks a client frame's replicas from `call->replica`: budget check,
  /// breaker gate, then onto the connection Shard::Pick chooses. Answers
  /// the frame with a typed error when the walk runs out.
  void Dispatch(std::unique_ptr<Call> call);

  /// Moves a call past the shard that failed it: the next replica for a
  /// client frame, a failure reply for a ping or a stats poll.
  void Failover(std::unique_ptr<Call> call, const std::string& why);

  /// Queues the call on the connection and writes what the socket takes,
  /// waking the connection's loop when it must dial, poll for POLLOUT or
  /// time the call out sooner than it planned. Runs on any thread; answers
  /// the call at once when the router has stopped.
  void Enqueue(Conn& conn, std::unique_ptr<Call> call,
               Clock::time_point deadline, std::vector<uint8_t> wire);

  /// Writes pending bytes until the socket would block. Requires the
  /// connection's mutex; a send error marks the connection broken for its
  /// loop to fail.
  void FlushLocked(Conn& conn);

  /// Sends a router-originated control frame (ping, stats poll) to a shard
  /// whose breaker already admitted it; no failover.
  void SendControl(Shard& shard, std::unique_ptr<Call> call,
                   int64_t timeout_ms);

  /// Closes the connection and moves every frame pending on it on: unwritten
  /// ones back onto the shard when `resend_unwritten`, the rest to Failover.
  /// One breaker failure when anything was pending. Loop thread only.
  void FailConn(Conn& conn, const std::string& why, bool resend_unwritten);

  /// Loop-thread halves of the connection: start a non-blocking dial,
  /// finish one (requires the connection's mutex) or count a failed one
  /// (backoff, then the waiting frames fail over), read replies and match
  /// each to the head of the FIFO (false when the reply failed the
  /// connection).
  void Dial(Conn& conn, Clock::time_point now);
  void Connected(Conn& conn);
  void DialFailed(Conn& conn, Clock::time_point now);
  void ReadReplies(Conn& conn);
  bool CompleteHead(Conn& conn, std::vector<uint8_t> reply);

  /// Answers a call with its final reply and releases its queue_depth slot.
  void Finish(Call& call, std::vector<uint8_t> reply);

  /// Finishes a call the stopped router will never send.
  void AnswerStopped(Call& call);

  /// Polls every reachable shard's stats (async) and hands the endpoint
  /// roll-up to `done` once all polls answered.
  void PollEndpoints(
      std::function<void(std::vector<WireEndpointStats>)> done);

  /// A router-produced error reply for a client frame (counted).
  std::vector<uint8_t> RouterError(const std::string& message, ErrorCode code);

  TokenBucket& BucketFor(const std::string& endpoint);

  void RunLoop(Loop& loop);
  void RunPinger();

  const RouterOptions options_;
  HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::string, Shard*> shards_by_id_;
  std::vector<std::unique_ptr<Loop>> loops_;

  std::mutex buckets_mutex_;
  std::map<std::string, std::unique_ptr<TokenBucket>> buckets_;

  std::atomic<bool> running_{false};
  std::atomic<int64_t> held_{0};  ///< client frames held (queue_depth)
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
