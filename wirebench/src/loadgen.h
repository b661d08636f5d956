// Single-threaded TSWP load generator: one thread multiplexes sending and
// receiving on every connection with ppoll(2), so a send is never queued
// behind a blocking receive and the generator's own lateness stays small
// and measured.
//
// Two disciplines share the event loop:
//   * open loop — request i is due at phase start + offsets[i] (a seeded
//     Poisson schedule) whether or not earlier replies have come back, and
//     its latency is taken from the due time, so a stall in the server
//     shows up in every request queued behind it;
//   * closed loop — a fixed window of outstanding requests; each reply
//     releases the next request, so the figure is throughput at that depth.

#ifndef WIREBENCH_LOADGEN_H_
#define WIREBENCH_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/net.h"
#include "trace.h"

namespace wirebench {

/// splitmix64: the one random stream every seeded input is drawn from.
class SeedStream {
 public:
  explicit SeedStream(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in (0, 1] — never 0, so -log(u) is finite.
  double Uniform() {
    return static_cast<double>((Next() >> 11) + 1) * (1.0 / 9007199254740992.0);
  }

  /// Uniform integer in [0, n); n > 0.
  int64_t Below(int64_t n) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
  }

 private:
  uint64_t state_;
};

/// Poisson arrivals: offsets (ns from phase start) of every arrival before
/// `duration_ns` at mean rate `rate_qps`.
std::vector<Ns> PoissonSchedule(uint64_t seed, double rate_qps, Ns duration_ns);

/// One request to send: a prepared frame and the connection it rides.
struct WireRequest {
  int32_t frame = 0;
  int32_t conn = 0;

  bool operator==(const WireRequest& o) const {
    return frame == o.frame && conn == o.conn;
  }
};

/// What happened to one sent request. Times are steady-clock ns; `due` is
/// the intended send time (equal to `sent` in the closed loop).
struct Outcome {
  int32_t frame = 0;
  Ns due = 0;
  Ns sent = 0;
  Ns recv = 0;
  bool answered = false;
  std::vector<uint8_t> reply;

  double LatencyMs() const { return static_cast<double>(recv - due) / 1e6; }
};

class LoadGenerator {
 public:
  LoadGenerator() = default;
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Opens `connections` non-blocking client sockets to the address.
  bool Connect(const tspn::common::SocketAddress& address, int connections,
               std::string* error);

  /// Open loop: requests[i] is due at start + offsets[i]. Returns one
  /// Outcome per request, in request order, once every reply arrived or
  /// `drain_ns` passed after the last due time.
  std::vector<Outcome> RunOpen(const std::vector<std::vector<uint8_t>>& frames,
                               const std::vector<WireRequest>& requests,
                               const std::vector<Ns>& offsets, Ns drain_ns);

  /// Closed loop: keeps `window` requests outstanding, taking each new one
  /// from `next` (false = no more), until `duration_ns` has passed; then
  /// waits up to `drain_ns` for the stragglers. *start/*end bound the
  /// issuing window.
  std::vector<Outcome> RunClosed(const std::vector<std::vector<uint8_t>>& frames,
                                 const std::function<bool(WireRequest*)>& next,
                                 int window, Ns duration_ns, Ns drain_ns,
                                 Ns* start, Ns* end);

  /// CPU time this thread spent inside the last Run* call.
  Ns last_cpu_ns() const { return last_cpu_ns_; }

  /// Whether the last RunOpen ran at real-time priority.
  bool last_realtime() const { return last_realtime_; }

 private:
  struct Conn {
    tspn::common::UniqueFd fd;
    std::vector<uint8_t> out;
    size_t out_off = 0;
    std::vector<uint8_t> in;
    std::deque<size_t> pending;  ///< outcome indices, in send order
    bool dead = false;
  };

  void Enqueue(Conn& conn, const std::vector<uint8_t>& frame, size_t index);
  void Flush(Conn& conn);
  /// Reads what is available and completes every whole reply frame;
  /// returns the number completed.
  int64_t Receive(Conn& conn, std::vector<Outcome>* outcomes);
  /// Waits for socket readiness or `timeout_ns`, then services the
  /// sockets. Returns replies completed.
  int64_t Poll(Ns timeout_ns, std::vector<Outcome>* outcomes);
  bool AllDead() const;

  std::vector<Conn> conns_;
  Ns last_cpu_ns_ = 0;
  bool last_realtime_ = false;
};

}  // namespace wirebench

#endif  // WIREBENCH_LOADGEN_H_
