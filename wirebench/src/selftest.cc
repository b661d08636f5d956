// Self-tests of the benchmark's own machinery: seeded inputs, the open-loop
// generator's accounting of a stall, and span self-time arithmetic.
//
//   wirebench_selftest        (run from the checkout root; exit 0 = pass)
//
// run.py runs these on every call, before any measurement.

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/net.h"
#include "serve/frame_handler.h"
#include "serve/frame_server.h"
#include "loadgen.h"
#include "stack.h"
#include "trace.h"

namespace wirebench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

std::vector<WireRequest> Take(RequestStream& stream, int n) {
  std::vector<WireRequest> out;
  for (int i = 0; i < n; ++i) out.push_back(stream.Next());
  return out;
}

void SeededInputsAreReproducible() {
  const Ns five_s = 5LL * 1000000000LL;
  const std::vector<Ns> a = PoissonSchedule(42, 300.0, five_s);
  const std::vector<Ns> b = PoissonSchedule(42, 300.0, five_s);
  const std::vector<Ns> c = PoissonSchedule(43, 300.0, five_s);
  EXPECT(a == b);
  EXPECT(a != c);
  EXPECT(a.size() > 1350 && a.size() < 1650);  // 1500 expected
  for (size_t i = 1; i < a.size(); ++i) EXPECT(a[i] >= a[i - 1]);

  RequestStream s1(42, 100, 8, 0.05);
  RequestStream s2(42, 100, 8, 0.05);
  RequestStream s3(43, 100, 8, 0.05);
  const std::vector<WireRequest> r1 = Take(s1, 2000);
  EXPECT(r1 == Take(s2, 2000));
  EXPECT(r1 != Take(s3, 2000));
  int itineraries = 0;
  for (const WireRequest& r : r1) {
    if (r.frame >= 100) {
      ++itineraries;
      EXPECT(r.frame < 108 && r.conn == kItineraryConn);
    } else {
      EXPECT(r.conn == kRecommendConn);
    }
  }
  EXPECT(itineraries == 100);  // every 20th arrival

  // Without itineraries the stream is successive permutations: every frame
  // exactly once per cycle.
  RequestStream plain(7, 50, 0, 0.0);
  std::vector<int> seen(50, 0);
  for (const WireRequest& r : Take(plain, 50)) ++seen[static_cast<size_t>(r.frame)];
  for (int count : seen) EXPECT(count == 1);
}

/// Echoes every frame back at once, except the `stall_at`-th, which holds
/// the IO thread for `stall_ms` first — everything queued behind it on the
/// connection waits too.
class StallingHandler : public tspn::serve::FrameHandler {
 public:
  StallingHandler(int stall_at, int stall_ms)
      : stall_at_(stall_at), stall_ms_(stall_ms) {}

  void HandleFrameAsync(const std::vector<uint8_t>& frame,
                        FrameCallback done) override {
    if (seen_++ == stall_at_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
    }
    done(frame);
  }

 private:
  const int stall_at_;
  const int stall_ms_;
  int seen_ = 0;  // IO-thread only (one IO thread)
};

void StallShowsInQueuedRequests() {
  constexpr int kStallAt = 100;
  constexpr int kStallMs = 60;
  StallingHandler handler(kStallAt, kStallMs);
  tspn::serve::FrameServerOptions options;
  options.unix_path = ".wirebench/selftest-" + std::to_string(::getpid()) + ".sock";
  options.io_threads = 1;
  tspn::serve::FrameServer server(handler, options);
  std::string error;
  EXPECT(server.Start(&error));
  if (!server.running()) return;

  LoadGenerator gen;
  EXPECT(gen.Connect(server.address(), 1, &error));
  const std::vector<std::vector<uint8_t>> frames = {std::vector<uint8_t>(32, 7)};
  // 1000 req/s, evenly spaced: 60 requests fall due during the stall.
  std::vector<Ns> offsets;
  std::vector<WireRequest> requests;
  for (int i = 0; i < 300; ++i) {
    offsets.push_back(static_cast<Ns>(i) * 1000000);
    requests.push_back(WireRequest{0, 0});
  }
  const std::vector<Outcome> out =
      gen.RunOpen(frames, requests, offsets, 5LL * 1000000000LL);
  server.Stop();

  EXPECT(out.size() == requests.size());
  int late = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT(out[i].answered);
    EXPECT(out[i].reply == frames[0]);
    if (out[i].LatencyMs() > 20.0) ++late;
  }
  // The stalled request itself, and the one due just after it, waited out
  // (nearly) the whole stall; latency runs from the due time, so requests
  // due during the stall keep counting the wait they were queued behind.
  EXPECT(out[kStallAt].LatencyMs() >= kStallMs * 0.9);
  EXPECT(out[kStallAt + 1].LatencyMs() >= kStallMs * 0.9 - 2.0);
  EXPECT(out[kStallAt + 30].LatencyMs() >= kStallMs - 30 - 5.0);
  EXPECT(late >= 35);
  // Requests well before the stall were quick.
  std::vector<double> early;
  for (int i = 0; i < kStallAt - 10; ++i) {
    early.push_back(out[static_cast<size_t>(i)].LatencyMs());
  }
  EXPECT(Median(early) < 5.0);
}

void SelfTimeArithmetic() {
  const Span parent{"p", 0, 100, -1, 1};
  EXPECT(SelfTimeNs(parent, {}) == 100);
  // Overlapping children count once; parts outside the parent not at all.
  EXPECT(SelfTimeNs(parent, {Span{"a", 10, 30, 0, 1}, Span{"b", 20, 40, 0, 1},
                             Span{"c", 90, 120, 0, 1}, Span{"d", 150, 160, 0, 1}}) ==
         60);
  EXPECT(SelfTimeNs(parent, {Span{"all", -5, 105, 0, 1}}) == 0);
  EXPECT(SelfTimeNs(parent, {Span{"a", 40, 50, 0, 1}, Span{"b", 10, 20, 0, 1}}) == 80);
  EXPECT(SelfTimeNs(parent, {Span{"touching", 10, 20, 0, 1},
                             Span{"t2", 20, 30, 0, 1}}) == 80);

  EXPECT(Percentile({5, 1, 4, 2, 3}, 0.5) == 3);
  EXPECT(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99) == 10);
  EXPECT(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9) == 9);
}

}  // namespace
}  // namespace wirebench

int main() {
  ::mkdir(".wirebench", 0755);
  wirebench::SeededInputsAreReproducible();
  wirebench::SelfTimeArithmetic();
  wirebench::StallShowsInQueuedRequests();
  if (wirebench::g_failures != 0) {
    std::printf("wirebench self-tests: %d failure(s)\n", wirebench::g_failures);
    return 1;
  }
  std::printf("wirebench self-tests: all passed\n");
  return 0;
}
