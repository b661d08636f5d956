// wirebench: the open-loop wire benchmark of the TSPN-RA serving stack.
//
//   wirebench --workload rec_city --seed 1 --seconds 6 --trace 0 [--quality 0|1]
//
// Stands the stack up from a seeded synthetic city, drives it over TSWP from
// one single-threaded load generator — an open-loop Poisson phase, then a
// closed-loop phase — checks a seeded sample of the answers byte for byte
// against an in-process reference model, and prints every metric by name
// and unit. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run first runs the untraced phases on the same
// stack, so it also reports the tracing overhead. One call is one round;
// ../run.py builds this, runs the rounds and aggregates them. See README.md.

#include <sched.h>
#include <sys/stat.h>
#include <time.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "eval/constraints.h"
#include "eval/model_registry.h"
#include "graph/qrp_graph.h"
#include "nn/kernels.h"
#include "plan/itinerary.h"
#include "serve/codec.h"
#include "loadgen.h"
#include "stack.h"
#include "trace.h"

extern char** environ;

namespace wirebench {
namespace {

namespace data = ::tspn::data;
namespace eval = ::tspn::eval;
namespace plan = ::tspn::plan;
namespace serve = ::tspn::serve;

constexpr double kOpenShare = 0.7;  // of --seconds; the rest is closed loop
constexpr Ns kDrainNs = 10LL * 1000000000LL;

// --- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0,
                    metrics_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

  void Print(const char* title) const {
    std::printf("%s\n", title);
    for (const Metric& m : metrics_) {
      std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

 private:
  std::vector<Metric> metrics_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// --- Machine -----------------------------------------------------------------

struct Machine {
  int nproc = 0;
  std::string cpu;
  std::string compiler;
  std::string build_type;
};

Machine DescribeMachine() {
  Machine m;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) m.nproc = CPU_COUNT(&set);
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000002, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      __get_cpuid(0x80000003, &regs[4], &regs[5], &regs[6], &regs[7]) &&
      __get_cpuid(0x80000004, &regs[8], &regs[9], &regs[10], &regs[11])) {
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    m.cpu = brand;
    m.cpu.erase(0, m.cpu.find_first_not_of(' '));
  }
#endif
  if (m.cpu.empty()) m.cpu = "unknown";
#if defined(__clang__)
  m.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  m.compiler = std::string("gcc ") + __VERSION__;
#else
  m.compiler = "unknown";
#endif
#ifdef WIREBENCH_BUILD_TYPE
  m.build_type = WIREBENCH_BUILD_TYPE;
#else
  m.build_type = "unknown";
#endif
  return m;
}

/// A fixed CPU loop, timed: how fast this box runs a constant chunk of
/// work right now. Median of `reps` timings, in ms.
double CalibrateMs(int reps) {
  std::vector<double> ms;
  volatile uint64_t sink = 0;
  for (int r = 0; r < reps; ++r) {
    const Ns start = NowNs();
    uint64_t x = 0x12345678ULL + static_cast<uint64_t>(r);
    for (int i = 0; i < 3000000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      x ^= x >> 29;
    }
    sink = sink + x;
    ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  return Median(ms);
}

/// num / den, or 0 when there is nothing to divide by.
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ToMs(Ns ns) { return static_cast<double>(ns) / 1e6; }
double ToUs(Ns ns) { return static_cast<double>(ns) / 1e3; }

Ns ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<Ns>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

// --- One pass: open loop then closed loop ------------------------------------

/// Whether a request was answered with the kind of frame it expects (an
/// error frame, a missing reply or a garbled one all count as failed).
bool Served(const Outcome& o, const Inputs& in) {
  serve::FrameType type = serve::FrameType::kError;
  if (!o.answered ||
      serve::PeekFrameType(o.reply, &type) != serve::DecodeStatus::kOk) {
    return false;
  }
  return type == (in.IsItinerary(o.frame) ? serve::FrameType::kItineraryResponse
                                          : serve::FrameType::kResponse);
}

struct PassResult {
  std::vector<Outcome> open;
  std::vector<Outcome> closed;
  Ns open_start = 0;
  Ns open_end = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  int64_t latency_samples = 0;
  double late_p99_ms = 0.0;
  double late_p50_ms = 0.0;
  double sat_qps = 0.0;
  double cpu_ms_per_req = 0.0;
  double plan_p50_ms = 0.0;
  int64_t plans = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t recommends = 0;
  int64_t graph_misses = 0;
};

PassResult RunPass(const WorkloadSpec& spec, const Inputs& in,
                   LoadGenerator& gen, RequestStream& stream,
                   uint64_t schedule_seed, double seconds,
                   std::unordered_set<int64_t>* seen_histories) {
  PassResult r;
  const Ns open_ns = static_cast<Ns>(seconds * kOpenShare * 1e9);
  const Ns closed_ns = static_cast<Ns>(seconds * (1.0 - kOpenShare) * 1e9);

  const std::vector<Ns> offsets =
      PoissonSchedule(schedule_seed, spec.offered_qps, open_ns);
  std::vector<WireRequest> requests;
  requests.reserve(offsets.size());
  for (size_t i = 0; i < offsets.size(); ++i) requests.push_back(stream.Next());

  const Ns cpu0 = ProcessCpuNs();
  r.open = gen.RunOpen(in.frames, requests, offsets, kDrainNs);
  const Ns serving_cpu = ProcessCpuNs() - cpu0 - gen.last_cpu_ns();

  std::vector<double> latencies;
  std::vector<double> plan_latencies;
  std::vector<double> late;
  int64_t answered = 0;
  r.open_start = r.open.empty() ? 0 : r.open.front().due;
  for (const Outcome& o : r.open) {
    late.push_back(ToMs(o.sent - o.due));
    if (!Served(o, in)) continue;
    ++answered;
    r.open_end = std::max(r.open_end, o.recv);
    (in.IsItinerary(o.frame) ? plan_latencies : latencies).push_back(o.LatencyMs());
  }
  r.p50_ms = Percentile(latencies, 0.50);
  r.p90_ms = Percentile(latencies, 0.90);
  r.p95_ms = Percentile(latencies, 0.95);
  r.p99_ms = Percentile(latencies, 0.99);
  r.latency_samples = static_cast<int64_t>(latencies.size());
  r.late_p99_ms = Percentile(late, 0.99);
  r.late_p50_ms = Percentile(late, 0.50);
  r.plan_p50_ms = Percentile(plan_latencies, 0.50);
  r.plans = static_cast<int64_t>(plan_latencies.size());
  r.cpu_ms_per_req = Ratio(ToMs(serving_cpu), static_cast<double>(answered));

  Ns closed_start = 0;
  Ns closed_end = 0;
  r.closed = gen.RunClosed(
      in.frames,
      [&](WireRequest* request) {
        *request = stream.Next();
        return true;
      },
      spec.closed_window, closed_ns, kDrainNs, &closed_start, &closed_end);
  int64_t in_window = 0;
  for (const Outcome& o : r.closed) {
    if (Served(o, in) && o.recv <= closed_end) ++in_window;
  }
  r.sat_qps = static_cast<double>(in_window) /
              (static_cast<double>(closed_end - closed_start) / 1e9);

  for (const std::vector<Outcome>* phase : {&r.open, &r.closed}) {
    for (const Outcome& o : *phase) {
      ++r.attempted;
      if (!Served(o, in)) ++r.failed;
      const data::SampleRef& s =
          in.IsItinerary(o.frame)
              ? in.itinerary[static_cast<size_t>(o.frame - in.recommends)].start
              : in.recommend[static_cast<size_t>(o.frame)].sample;
      const bool miss = seen_histories->insert(HistoryKey(s.user, s.traj)).second;
      if (!in.IsItinerary(o.frame)) {
        ++r.recommends;
        if (miss) ++r.graph_misses;
      }
    }
  }
  return r;
}

// --- Correctness -------------------------------------------------------------

struct CheckResult {
  int64_t checked = 0;
  int64_t mismatches = 0;
};

/// Re-serves a seeded sample of the run's answered requests on a reference
/// model restored from the same checkpoint and compares the wire replies
/// byte for byte.
CheckResult CheckAnswers(const std::vector<const Outcome*>& outcomes,
                         const Inputs& in, Stack& stack, uint64_t seed) {
  CheckResult result;
  std::vector<const Outcome*> recs;
  std::vector<const Outcome*> plans;
  for (const Outcome* o : outcomes) {
    if (!Served(*o, in)) continue;
    (in.IsItinerary(o->frame) ? plans : recs).push_back(o);
  }
  SeedStream rng(seed ^ 0xC0FFEE0DDBA11ULL);
  auto pick = [&rng](std::vector<const Outcome*>* v, size_t n) {
    for (size_t i = 0; i < v->size() && i < n; ++i) {
      std::swap((*v)[i], (*v)[i + static_cast<size_t>(rng.Below(
                                  static_cast<int64_t>(v->size() - i)))]);
    }
    if (v->size() > n) v->resize(n);
  };
  pick(&recs, 96);
  pick(&plans, 12);

  std::unique_ptr<eval::NextPoiModel> reference = eval::ModelRegistry::Global().Create(
      "TSPN-RA", stack.dataset(), PinnedModelOptions());
  if (reference == nullptr || !reference->LoadCheckpoint(stack.checkpoint())) {
    result.mismatches = 1;
    std::printf("correctness: reference model failed to load\n");
    return result;
  }
  for (const Outcome* o : recs) {
    const eval::RecommendRequest& request =
        in.recommend[static_cast<size_t>(o->frame)];
    ++result.checked;
    if (serve::EncodeRecommendResponse(reference->Recommend(request)) != o->reply) {
      ++result.mismatches;
    }
  }
  plan::ItineraryPlanner planner(*reference, stack.dataset(), plan::PlannerOptions{});
  for (const Outcome* o : plans) {
    const plan::ItineraryRequest& request =
        in.itinerary[static_cast<size_t>(o->frame - in.recommends)];
    plan::ItineraryResponse expected;
    std::string error;
    ++result.checked;
    if (!planner.Plan(request, &expected, &error) ||
        serve::EncodeItineraryResponse(expected) != o->reply) {
      ++result.mismatches;
    }
  }
  return result;
}

/// Mean stage-1 screen width of the served recommend replies, in units of
/// K (1 = no constraint-driven widening).
double ScreenRatio(const std::vector<const Outcome*>& outcomes, const Inputs& in,
                   int32_t top_k_tiles) {
  double screened = 0.0;
  int64_t replies = 0;
  for (const Outcome* o : outcomes) {
    if (in.IsItinerary(o->frame) || !Served(*o, in)) continue;
    eval::RecommendResponse response;
    if (serve::DecodeRecommendResponse(o->reply, &response) !=
        serve::DecodeStatus::kOk) {
      continue;
    }
    screened += static_cast<double>(response.tiles_screened);
    ++replies;
  }
  return replies > 0 ? screened / static_cast<double>(replies) /
                           static_cast<double>(top_k_tiles)
                     : 0.0;
}

/// Serves the fixed quality set over the wire (untimed) and returns
/// Recall@10 against the true next POI; a failed reply counts in *failed.
double ServeQualitySet(LoadGenerator& gen, const Inputs& in, int window,
                       int64_t* attempted, int64_t* failed, int64_t* hits) {
  int32_t next = in.quality_begin;
  const int32_t end = static_cast<int32_t>(in.frames.size());
  Ns start = 0;
  Ns stop = 0;
  const std::vector<Outcome> out = gen.RunClosed(
      in.frames,
      [&](WireRequest* request) {
        if (next >= end) return false;
        *request = WireRequest{next++, kRecommendConn};
        return true;
      },
      window, 60LL * 1000000000LL, kDrainNs, &start, &stop);
  *hits = 0;
  for (const Outcome& o : out) {
    ++*attempted;
    eval::RecommendResponse response;
    if (!o.answered || serve::DecodeRecommendResponse(o.reply, &response) !=
                           serve::DecodeStatus::kOk) {
      ++*failed;
      continue;
    }
    const int64_t target =
        in.quality_targets[static_cast<size_t>(o.frame - in.quality_begin)];
    for (size_t i = 0; i < response.items.size() && i < 10; ++i) {
      if (response.items[i].poi_id == target) {
        ++*hits;
        break;
      }
    }
  }
  const size_t total = static_cast<size_t>(end - in.quality_begin);
  if (out.size() != total) *failed += static_cast<int64_t>(total - out.size());
  return total > 0 ? static_cast<double>(*hits) / static_cast<double>(total) : 0.0;
}

// --- Per-layer probes (traced run) -------------------------------------------

/// Times the codec on the run's own frames: request + response, each way.
void ProbeCodec(const std::vector<const Outcome*>& outcomes, const Inputs& in,
                MetricSet* m) {
  using Bytes = std::vector<uint8_t>;
  std::vector<std::pair<const Bytes*, const Bytes*>> pairs;
  for (const Outcome* o : outcomes) {
    if (in.IsItinerary(o->frame) || !Served(*o, in)) continue;
    pairs.emplace_back(&in.frames[static_cast<size_t>(o->frame)], &o->reply);
    if (pairs.size() == 256) break;
  }
  if (pairs.empty()) return;
  double req_bytes = 0.0;
  double resp_bytes = 0.0;
  for (const auto& [req, resp] : pairs) {
    req_bytes += static_cast<double>(req->size());
    resp_bytes += static_cast<double>(resp->size());
  }
  std::vector<std::string> endpoints(pairs.size());
  std::vector<eval::RecommendRequest> requests(pairs.size());
  std::vector<eval::RecommendResponse> responses(pairs.size());
  int64_t decoded = 0;
  const Ns d0 = NowNs();
  for (int rep = 0; rep < 20; ++rep) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      serve::DecodeRecommendRequest(*pairs[i].first, &endpoints[i], &requests[i]);
      serve::DecodeRecommendResponse(*pairs[i].second, &responses[i]);
      ++decoded;
    }
  }
  const Ns d1 = NowNs();
  size_t sink = 0;
  int64_t encoded = 0;
  for (int rep = 0; rep < 20; ++rep) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      sink += serve::EncodeRecommendRequest(endpoints[i], requests[i]).size();
      sink += serve::EncodeRecommendResponse(responses[i]).size();
      ++encoded;
    }
  }
  const Ns e1 = NowNs();
  if (sink == 0) std::printf("codec probe produced no bytes\n");
  const double n = static_cast<double>(pairs.size());
  m->Add("codec.encode_us", Ratio(ToUs(e1 - d1), static_cast<double>(encoded)), "us");
  m->Add("codec.decode_us", Ratio(ToUs(d1 - d0), static_cast<double>(decoded)), "us");
  m->Add("codec.req_bytes", req_bytes / n, "bytes");
  m->Add("codec.resp_bytes", resp_bytes / n, "bytes");
}

/// Times BuildQrpGraph on the run's distinct (user, trajectory) histories,
/// truncated as TSPN-RA truncates them.
double ProbeGraphBuildUs(const std::vector<const Outcome*>& outcomes,
                         const Inputs& in, const data::CityDataset& city) {
  std::vector<std::pair<int32_t, int32_t>> keys;
  std::unordered_set<int64_t> seen;
  for (const Outcome* o : outcomes) {
    if (in.IsItinerary(o->frame)) continue;
    const data::SampleRef& s = in.recommend[static_cast<size_t>(o->frame)].sample;
    if (seen.insert(HistoryKey(s.user, s.traj)).second) {
      keys.emplace_back(s.user, s.traj);
    }
    if (keys.size() == 256) break;
  }
  if (keys.empty()) return 0.0;
  constexpr size_t kMaxHistory = 150;  // TspnRaConfig::max_history_checkins
  std::vector<std::vector<int64_t>> histories;
  for (const auto& [user, traj] : keys) {
    std::vector<int64_t> h = city.HistoryPoiIds(user, traj);
    if (h.size() > kMaxHistory) h.erase(h.begin(), h.end() - kMaxHistory);
    histories.push_back(std::move(h));
  }
  std::vector<double> per_pass;
  for (int rep = 0; rep < 3; ++rep) {
    const Ns start = NowNs();
    int64_t nodes = 0;
    for (const std::vector<int64_t>& h : histories) {
      nodes += tspn::graph::BuildQrpGraph(city.quadtree(), city.leaf_adjacency(),
                                          city.pois(), h)
                   .NumNodes();
    }
    if (nodes < 0) std::printf("graph probe: negative node count\n");
    per_pass.push_back(static_cast<double>(NowNs() - start) / 1e3 /
                       static_cast<double>(histories.size()));
  }
  return Median(per_pass);
}

/// Times the two scoring GEMMs at the run's mean batch against the leaf
/// tiles and the POI table; flops and bytes follow from the shapes.
void ProbeKernels(double mean_batch, const data::CityDataset& city, MetricSet* m) {
  const int64_t b = std::max<int64_t>(1, std::llround(mean_batch));
  const int64_t dm = PinnedKnobs().dm;
  const int64_t leaves = static_cast<int64_t>(city.quadtree().LeafNodes().size());
  const int64_t pois = static_cast<int64_t>(city.pois().size());
  SeedStream rng(0xBEEF);
  auto fill = [&rng](std::vector<float>* v) {
    for (float& x : *v) x = static_cast<float>(rng.Uniform() - 0.5);
  };
  std::vector<float> y(static_cast<size_t>(b * dm));
  std::vector<float> zl(static_cast<size_t>(leaves * dm));
  std::vector<float> zp(static_cast<size_t>(pois * dm));
  std::vector<float> cl(static_cast<size_t>(b * leaves));
  std::vector<float> cp(static_cast<size_t>(b * pois));
  fill(&y);
  fill(&zl);
  fill(&zp);
  std::vector<double> us;
  using tspn::nn::kernels::DotProductGemm;
  for (int rep = 0; rep < 50; ++rep) {
    const Ns start = NowNs();
    DotProductGemm(y.data(), zl.data(), cl.data(), b, leaves, dm, false);
    DotProductGemm(y.data(), zp.data(), cp.data(), b, pois, dm, false);
    us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  const double cols = static_cast<double>(leaves + pois);
  m->Add("kernels.score_gemm_us", Median(us), "us");
  m->Add("kernels.score_gflop", 2.0 * static_cast<double>(b * dm) * cols / 1e9,
         "GFLOP");
  m->Add("kernels.score_mbytes",
         4.0 * (2.0 * static_cast<double>(b * dm) + cols * static_cast<double>(dm) +
                static_cast<double>(b) * cols) / 1e6,
         "MB");
}

// --- Trace analysis ----------------------------------------------------------

struct TraceSummary {
  std::vector<Span> spans;
  std::vector<double> transport_us;   // client self time (recommends, open loop)
  std::vector<double> router_hop_us;  // router span self time
  std::vector<double> queue_wait_ms;  // gateway span self time
  double handler_match = 0.0;         // share of requests paired with a span
  double model_match = 0.0;           // share of recommends paired with a batch
  std::vector<double> batch_ms;
  double batch_sum_ms = 0.0;
  int64_t batch_requests = 0;
  double busy_ms_open = 0.0;
};

TraceSummary AnalyzeTrace(const PassResult& pass, const Inputs& in, bool routed,
                          std::vector<HandlerRecord> handlers,
                          const std::vector<BatchRecord>& batches) {
  TraceSummary t;
  // Handler records per (layer, frame hash), in start order.
  std::map<std::pair<int, uint64_t>, std::vector<const HandlerRecord*>> by_hash;
  std::sort(handlers.begin(), handlers.end(),
            [](const HandlerRecord& a, const HandlerRecord& b) {
              return a.start < b.start;
            });
  for (const HandlerRecord& h : handlers) {
    by_hash[{static_cast<int>(h.layer), h.frame_hash}].push_back(&h);
  }
  std::unordered_map<uint64_t, std::vector<size_t>> batches_by_key;
  for (size_t i = 0; i < batches.size(); ++i) {
    for (uint64_t key : batches[i].keys) batches_by_key[key].push_back(i);
    const double ms = static_cast<double>(batches[i].end - batches[i].start) / 1e6;
    t.batch_ms.push_back(ms);
    t.batch_sum_ms += ms;
    t.batch_requests += static_cast<int64_t>(batches[i].keys.size());
    if (batches[i].start >= pass.open_start && batches[i].start < pass.open_end) {
      t.busy_ms_open += ms;
    }
  }

  // Requests in send order; the k-th request with a given frame hash pairs
  // with the k-th handler span of that hash at each layer.
  std::vector<const Outcome*> requests;
  for (const Outcome& o : pass.open) requests.push_back(&o);
  for (const Outcome& o : pass.closed) requests.push_back(&o);
  const size_t open_count = pass.open.size();
  std::map<std::pair<int, uint64_t>, size_t> cursor;
  auto take = [&](Layer layer, uint64_t hash) -> const HandlerRecord* {
    const std::pair<int, uint64_t> key{static_cast<int>(layer), hash};
    auto it = by_hash.find(key);
    if (it == by_hash.end()) return nullptr;
    size_t& c = cursor[key];
    return c < it->second.size() ? it->second[c++] : nullptr;
  };
  std::vector<size_t> order(requests.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return requests[a]->sent < requests[b]->sent;
  });

  int64_t matched = 0;
  int64_t recs = 0;
  int64_t model_matched = 0;
  for (size_t id : order) {
    const Outcome& o = *requests[id];
    if (!o.answered) continue;
    const uint64_t hash = in.frame_hashes[static_cast<size_t>(o.frame)];
    const HandlerRecord* front = routed ? take(Layer::kRouter, hash) : nullptr;
    const HandlerRecord* gw = take(Layer::kGateway, hash);
    if (gw == nullptr || (routed && front == nullptr)) continue;
    ++matched;
    const int64_t rid = static_cast<int64_t>(id);
    const int64_t client = static_cast<int64_t>(t.spans.size());
    t.spans.push_back(Span{"client", o.sent, o.recv, -1, rid});
    int64_t parent = client;
    if (routed) {
      t.spans.push_back(Span{"router", front->start, front->end, client, rid});
      parent = client + 1;
    }
    const int64_t gw_index = static_cast<int64_t>(t.spans.size());
    t.spans.push_back(Span{"gateway", gw->start, gw->end, parent, rid});
    const Span client_span = t.spans[static_cast<size_t>(client)];
    const Span gw_span = t.spans[static_cast<size_t>(gw_index)];
    if (in.IsItinerary(o.frame)) continue;
    ++recs;
    const Span top = t.spans[static_cast<size_t>(routed ? client + 1 : gw_index)];
    if (id < open_count) {
      t.transport_us.push_back(ToUs(SelfTimeNs(client_span, {top})));
      if (routed) {
        t.router_hop_us.push_back(ToUs(SelfTimeNs(top, {gw_span})));
      }
    }
    // The model batch that served this request: carries its key and lies
    // inside the gateway span.
    const uint64_t key = RequestKey(in.recommend[static_cast<size_t>(o.frame)]);
    auto it = batches_by_key.find(key);
    if (it == batches_by_key.end()) continue;
    for (size_t bi : it->second) {
      const BatchRecord& b = batches[bi];
      if (b.start >= gw->start && b.end <= gw->end) {
        const Span model{"model", b.start, b.end, gw_index, rid};
        t.spans.push_back(model);
        ++model_matched;
        if (id < open_count) {
          t.queue_wait_ms.push_back(ToMs(SelfTimeNs(gw_span, {model})));
        }
        break;
      }
    }
  }
  t.handler_match = requests.empty() ? 0.0
                                     : static_cast<double>(matched) /
                                           static_cast<double>(requests.size());
  t.model_match =
      Ratio(static_cast<double>(model_matched), static_cast<double>(recs));
  return t;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %lld, \"request\": %lld}\n",
                 s.name.c_str(), static_cast<long long>(s.start),
                 static_cast<long long>(s.end), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

// --- Arguments and environment ----------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool quality = true;
};

/// Checkpoints, unix sockets and span files, relative to the checkout root
/// so socket paths stay inside sun_path's limit wherever the checkout is.
constexpr char kOutDir[] = ".wirebench";

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--quality") {
      args->quality = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flags take one value each\n");
    return false;
  }
  return have_workload && args->seconds >= 1.0 && args->seconds <= 120.0;
}

/// Every TSPN_* variable would feed a FromEnv default somewhere in the
/// stack; the only one allowed is TSPN_NUM_THREADS=1, which pins the GEMM
/// row split.
bool EnvironmentIsPinned() {
  bool ok = true;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("TSPN_", 0) != 0) continue;
    if (entry == "TSPN_NUM_THREADS=1") continue;
    std::fprintf(stderr, "refusing to run: stray %s would change a knob\n",
                 entry.substr(0, entry.find('=')).c_str());
    ok = false;
  }
  return ok;
}

void PrintHeader(const Args& args, const Machine& machine) {
  const Knobs& k = PinnedKnobs();
  std::printf("wirebench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("machine: nproc=%d cpu=\"%s\" compiler=\"%s\" build=%s\n", machine.nproc,
              machine.cpu.c_str(), machine.compiler.c_str(), machine.build_type.c_str());
  std::printf(
      "knobs: engine_workers=%d coalesce_us=%lld max_batch=%lld queue_depth=%lld "
      "io_threads=%d conn_inflight=%lld router_workers=%d router_pool=%lld "
      "router_ping_ms=%lld TSPN_NUM_THREADS=%d dm=%lld degraded_mode=off\n",
      k.engine_workers, static_cast<long long>(k.coalesce_us),
      static_cast<long long>(k.max_batch), static_cast<long long>(k.queue_depth),
      k.io_threads, static_cast<long long>(k.conn_inflight), k.router_workers,
      static_cast<long long>(k.router_pool), static_cast<long long>(k.router_ping_ms),
      tspn::nn::kernels::NumThreads(), static_cast<long long>(k.dm));
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  ::mkdir(kOutDir, 0755);
  RegisterTimedModel();
  const Machine machine = DescribeMachine();
  PrintHeader(args, machine);
  const double calib_before = CalibrateMs(5);

  Stack stack(*spec, kOutDir, args.trace, args.seed);
  SetupTimes setup;
  {
    std::string error;
    if (!stack.Start(&setup, &error)) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return 1;
    }
  }
  std::printf("setup: %.3f s (generate %.3f, train %.3f, save %.3f, deploy %.3f, "
              "listen %.3f, warm-up %.3f)\n",
              setup.total_s, setup.generate_s, setup.train_s, setup.save_s,
              setup.deploy_s, setup.listen_s, setup.warmup_s);
  const Inputs& in = stack.inputs();

  LoadGenerator gen;
  std::string error;
  if (!gen.Connect(stack.front_address(), spec->connections(), &error)) {
    std::fprintf(stderr, "connect failed: %s\n", error.c_str());
    return 1;
  }
  RequestStream stream(args.seed, in.recommends, in.itineraries, spec->itinerary_share);
  std::unordered_set<int64_t> seen(stack.warm_history_keys().begin(),
                                   stack.warm_history_keys().end());

  const PassResult plain =
      RunPass(*spec, in, gen, stream, args.seed, args.seconds, &seen);

  PassResult traced;
  TraceSummary summary;
  MetricSet layer;
  if (args.trace) {
    serve::EndpointStats before;
    stack.gateway().GetEndpointStats(kEndpoint, &before);
    const tspn::eval::FenceCacheStats fence0 = eval::FenceClassificationCacheStats();
    tspn::serve::cluster::ClusterStats router0;
    if (stack.router() != nullptr) router0 = stack.router()->Snapshot();
    Tracer::Global().TakeHandlers();
    Tracer::Global().TakeBatches();

    Tracer::Global().set_enabled(true);
    traced = RunPass(*spec, in, gen, stream, args.seed ^ 0x7ACE7ACEULL, args.seconds,
                     &seen);
    Tracer::Global().set_enabled(false);

    serve::EndpointStats after;
    stack.gateway().GetEndpointStats(kEndpoint, &after);
    const tspn::eval::FenceCacheStats fence1 = eval::FenceClassificationCacheStats();
    summary = AnalyzeTrace(traced, in, spec->routed, Tracer::Global().TakeHandlers(),
                           Tracer::Global().TakeBatches());

    std::vector<const Outcome*> traced_outcomes;
    for (const Outcome& o : traced.open) traced_outcomes.push_back(&o);
    for (const Outcome& o : traced.closed) traced_outcomes.push_back(&o);

    layer.Add("data.generate_s", setup.generate_s, "s");
    layer.Add("train.train_s", setup.train_s, "s");
    layer.Add("gateway.deploy_s", setup.deploy_s, "s");
    layer.Add("warmup_s", setup.warmup_s, "s");
    ProbeCodec(traced_outcomes, in, &layer);
    const std::vector<double>& transport = summary.transport_us;
    layer.Add("transport.overhead_us_p50", Percentile(transport, 0.50), "us");
    layer.Add("transport.overhead_us_p99", Percentile(transport, 0.99), "us");
    const serve::FrameServerStats fs = stack.front_server().GetStats();
    layer.Add("frame_server.max_in_flight",
              static_cast<double>(fs.max_in_flight_observed), "count");
    layer.Add("frame_server.read_throttles", static_cast<double>(fs.read_throttles),
              "count");
    const std::vector<double>& wait = summary.queue_wait_ms;
    layer.Add("engine.queue_wait_ms_p50", Percentile(wait, 0.50), "ms");
    layer.Add("engine.queue_wait_ms_p99", Percentile(wait, 0.99), "ms");
    const double batches =
        static_cast<double>(after.lifetime_batches - before.lifetime_batches);
    const double completed =
        static_cast<double>(after.lifetime_completed - before.lifetime_completed);
    const double batch_mean = batches > 0 ? completed / batches : 0.0;
    layer.Add("engine.batch_mean", batch_mean, "req");
    layer.Add("engine.batches", batches, "count");
    layer.Add("engine.shed",
              static_cast<double>((after.shed_capacity + after.shed_deadline +
                                   after.expired_in_queue) -
                                  (before.shed_capacity + before.shed_deadline +
                                   before.expired_in_queue)),
              "count");
    const double open_wall_ms = ToMs(traced.open_end - traced.open_start);
    layer.Add("engine.busy_frac",
              Ratio(summary.busy_ms_open, open_wall_ms * PinnedKnobs().engine_workers),
              "frac");
    layer.Add("model.batch_ms_p50", Median(summary.batch_ms), "ms");
    layer.Add("model.ms_per_req",
              summary.batch_requests > 0
                  ? summary.batch_sum_ms / static_cast<double>(summary.batch_requests)
                  : 0.0,
              "ms");
    layer.Add("model.screen_ratio",
              ScreenRatio(traced_outcomes, in, stack.dataset()->profile().top_k_tiles),
              "ratio");
    layer.Add("graph.build_us",
              ProbeGraphBuildUs(traced_outcomes, in, *stack.dataset()), "us");
    layer.Add("graph.miss_frac",
              traced.recommends > 0 ? static_cast<double>(traced.graph_misses) /
                                          static_cast<double>(traced.recommends)
                                    : 0.0,
              "frac");
    const double fence_hits = static_cast<double>(fence1.hits - fence0.hits);
    const double fence_misses = static_cast<double>(fence1.misses - fence0.misses);
    layer.Add("constraints.fence_hit_frac", Ratio(fence_hits, fence_hits + fence_misses),
              "frac");
    ProbeKernels(batch_mean, *stack.dataset(), &layer);
    tspn::serve::cluster::ClusterStats router1;
    if (stack.router() != nullptr) router1 = stack.router()->Snapshot();
    layer.Add("router.frames_routed",
              static_cast<double>(router1.frames_routed - router0.frames_routed),
              "count");
    layer.Add("router.failovers",
              static_cast<double>(router1.failovers - router0.failovers), "count");
    layer.Add("router.errors",
              static_cast<double>((router1.router_errors + router1.shard_errors) -
                                  (router0.router_errors + router0.shard_errors)),
              "count");
    double waves = 0.0;
    double rollouts = 0.0;
    double stops = 0.0;
    int64_t plans = 0;
    for (const Outcome* o : traced_outcomes) {
      if (!in.IsItinerary(o->frame) || !Served(*o, in)) continue;
      plan::ItineraryResponse response;
      if (serve::DecodeItineraryResponse(o->reply, &response) !=
          serve::DecodeStatus::kOk) {
        continue;
      }
      ++plans;
      waves += static_cast<double>(response.expansions);
      rollouts += static_cast<double>(response.rollouts_scored);
      for (const plan::ItineraryPlan& p : response.plans) {
        stops += static_cast<double>(p.stops.size());
      }
    }
    layer.Add("plan.waves", Ratio(waves, static_cast<double>(plans)), "count");
    layer.Add("plan.rollouts", Ratio(rollouts, static_cast<double>(plans)), "count");
    layer.Add("plan.useful_frac", Ratio(stops, rollouts), "frac");
    layer.Add("gen.late_p99_ms", traced.late_p99_ms, "ms");
    layer.Add("trace.overhead_p50_ms", traced.p50_ms - plain.p50_ms, "ms");
    layer.Add("trace.overhead_sat_qps", traced.sat_qps - plain.sat_qps, "req/s");
  }

  const double calib_after = CalibrateMs(5);
  const double calib = (calib_before + calib_after) / 2.0;
  if (args.trace) layer.Add("box.calib_ms", calib, "ms");

  // Correctness and quality over every timed request.
  std::vector<const Outcome*> all;
  auto add = [&all](const std::vector<Outcome>& phase) {
    for (const Outcome& o : phase) all.push_back(&o);
  };
  add(plain.open);
  add(plain.closed);
  add(traced.open);
  add(traced.closed);
  const CheckResult check = CheckAnswers(all, in, stack, args.seed);
  const double screen_ratio =
      ScreenRatio(all, in, stack.dataset()->profile().top_k_tiles);
  int64_t quality_attempted = 0;
  int64_t quality_failed = 0;
  int64_t quality_hits = 0;
  double hit10 = 0.0;
  if (args.quality) {
    hit10 = ServeQualitySet(gen, in, spec->closed_window, &quality_attempted,
                            &quality_failed, &quality_hits);
  }
  const int64_t attempted = plain.attempted + traced.attempted + quality_attempted;
  const int64_t failed =
      plain.failed + traced.failed + check.mismatches + quality_failed;
  const double err_frac =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                    : 1.0;

  MetricSet e2e;
  e2e.Add("setup_s", setup.total_s, "s");
  e2e.Add("sat_qps", plain.sat_qps, "req/s");
  e2e.Add("cpu_ms_per_req", plain.cpu_ms_per_req, "ms");
  if (args.quality) e2e.Add("hit10", hit10, "frac");

  MetricSet diag;
  diag.Add("err_frac", err_frac, "frac");
  if (args.quality) {
    // hit10's resolution: one hit is 1 / quality_samples of it.
    diag.Add("quality_hits", static_cast<double>(quality_hits), "count");
    diag.Add("quality_samples", static_cast<double>(quality_attempted), "count");
  }
  diag.Add("p50_ms", plain.p50_ms, "ms");
  diag.Add("p90_ms", plain.p90_ms, "ms");
  diag.Add("p95_ms", plain.p95_ms, "ms");
  diag.Add("p99_ms", plain.p99_ms, "ms");
  diag.Add("latency_samples", static_cast<double>(plain.latency_samples), "count");
  diag.Add("beyond_p95", std::floor(static_cast<double>(plain.latency_samples) * 0.05),
           "count");
  diag.Add("beyond_p99", std::floor(static_cast<double>(plain.latency_samples) * 0.01),
           "count");
  diag.Add("offered_qps", spec->offered_qps, "req/s");
  diag.Add("closed_window", spec->closed_window, "req");
  diag.Add("graph.miss_frac",
           plain.recommends > 0 ? static_cast<double>(plain.graph_misses) /
                                      static_cast<double>(plain.recommends)
                                : 0.0,
           "frac");
  diag.Add("model.screen_ratio", screen_ratio, "ratio");
  diag.Add("gen.late_p99_ms", plain.late_p99_ms, "ms");
  diag.Add("gen.late_p50_ms", plain.late_p50_ms, "ms");
  diag.Add("gen.realtime", gen.last_realtime() ? 1.0 : 0.0, "bool");
  diag.Add("box.calib_ms", calib, "ms");
  diag.Add("box.calib_before_ms", calib_before, "ms");
  diag.Add("box.calib_after_ms", calib_after, "ms");
  diag.Add("checked_answers", static_cast<double>(check.checked), "count");
  diag.Add("wrong_answers", static_cast<double>(check.mismatches), "count");
  if (spec->itinerary_share > 0.0) {
    diag.Add("plan_p50_ms", plain.plan_p50_ms, "ms");
    diag.Add("plans", static_cast<double>(plain.plans), "count");
  }
  if (args.trace) {
    diag.Add("traced.p50_ms", traced.p50_ms, "ms");
    diag.Add("traced.sat_qps", traced.sat_qps, "req/s");
    diag.Add("trace.handler_match", summary.handler_match, "frac");
    diag.Add("trace.model_match", summary.model_match, "frac");
    if (spec->routed) {
      diag.Add("router.hop_us_p50", Percentile(summary.router_hop_us, 0.50), "us");
    }
    if (spec->itinerary_share > 0.0) {
      diag.Add("plan.ms_p50", traced.plan_p50_ms, "ms");
    }
  }

  e2e.Print("end-to-end (untraced pass):");
  diag.Print("diagnostics:");
  if (args.trace) {
    layer.Print("per-layer (traced pass):");
    const std::string path = std::string(kOutDir) + "/spans-" + spec->name + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (WriteSpans(path, summary.spans)) {
      std::printf("spans: %zu written to %s\n", summary.spans.size(), path.c_str());
    }
  }
  std::printf("{\"detail\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
              "\"machine\": {\"nproc\": %d, \"cpu\": %s, \"compiler\": %s, "
              "\"build_type\": %s}, \"end_to_end\": %s, \"diagnostics\": %s, "
              "\"per_layer\": %s}}\n",
              JsonString(spec->name).c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, machine.nproc, JsonString(machine.cpu).c_str(),
              JsonString(machine.compiler).c_str(), JsonString(machine.build_type).c_str(),
              e2e.Json().c_str(), diag.Json().c_str(), layer.Json().c_str());

  stack.Stop();
  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed),
              (args.trace ? layer : e2e).Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wirebench

int main(int argc, char** argv) {
  wirebench::Args args;
  if (!wirebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wirebench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--quality 0|1]\n");
    return 2;
  }
  if (!wirebench::EnvironmentIsPinned()) return 2;
  return wirebench::Run(args);
}
