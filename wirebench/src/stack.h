// The serving stack under test and the seams the traced run times it at.
//
// A Stack stands up, from a seeded synthetic city, exactly what a
// deployment runs: dataset generation, TSPN-RA training, checkpoint save,
// Gateway::Deploy of that checkpoint, a FrameServer on a unix socket in
// front of the gateway and — for the routed workload — a ShardRouter with
// its own FrameServer in front of that. Every thread count and knob is set
// here explicitly; nothing is read from TSPN_* variables.
//
// Tracing stays outside src/: a FrameHandler decorator times the gateway
// and the router at their HandleFrameAsync seam, and TimedTspnRa (a
// TspnRa registered in eval::ModelRegistry) times every RecommendBatch.

#ifndef WIREBENCH_STACK_H_
#define WIREBENCH_STACK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/net.h"
#include "data/city_profile.h"
#include "data/dataset.h"
#include "eval/model_registry.h"
#include "eval/recommend.h"
#include "plan/itinerary.h"
#include "serve/cluster/shard_router.h"
#include "serve/frame_handler.h"
#include "serve/frame_server.h"
#include "serve/gateway.h"
#include "loadgen.h"
#include "trace.h"

namespace wirebench {

// --- Workloads ---------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  tspn::data::CityProfile profile;
  bool routed = false;       ///< ShardRouter + front FrameServer in front
  bool constrained = false;  ///< seeded constraint mix on every recommend
  double itinerary_share = 0.0;  ///< share of arrivals that are itineraries
  double offered_qps = 0.0;      ///< open-loop Poisson rate
  int closed_window = 0;         ///< closed-loop outstanding requests
  /// Warm-up: 0 replays every test sample (the history-graph cache is hot
  /// when timing starts); n > 0 sends n validation-split requests, which
  /// warm code and allocator but no test-sample graph.
  int cold_warmup = 0;
  int64_t train_samples = 96;

  /// Recommends ride connection kRecommendConn; itineraries ride
  /// kItineraryConn of their own, so a long plan never holds recommend
  /// replies back (replies keep per-connection order).
  int connections() const { return itinerary_share > 0.0 ? 2 : 1; }
};

inline constexpr int kRecommendConn = 0;
inline constexpr int kItineraryConn = 1;

/// The workload by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

// --- Inputs ------------------------------------------------------------------

/// Every frame a run can send, prepared once. Frames [0, recommends) are
/// recommend requests for the timed phases, the next `itineraries` are
/// itinerary requests, [warmup_begin, quality_begin) are warm-up only, and
/// [quality_begin, frames.size()) is the fixed quality set: unconstrained
/// top-10 requests whose served replies give hit10 after the timed phases.
struct Inputs {
  std::vector<std::vector<uint8_t>> frames;
  std::vector<uint64_t> frame_hashes;
  std::vector<tspn::eval::RecommendRequest> recommend;   ///< per recommend frame
  std::vector<tspn::plan::ItineraryRequest> itinerary;  ///< per itinerary frame
  int32_t recommends = 0;
  int32_t itineraries = 0;
  int32_t warmup_begin = 0;
  int32_t quality_begin = 0;
  std::vector<int64_t> quality_targets;  ///< per quality frame

  bool IsItinerary(int32_t frame) const {
    return frame >= recommends && frame < recommends + itineraries;
  }
};

inline constexpr const char* kEndpoint = "city";
inline constexpr size_t kQualitySamples = 480;

Inputs MakeInputs(const WorkloadSpec& spec, const tspn::data::CityDataset& city,
                  uint64_t seed);

/// The seeded request sequence of the timed phases: recommend frames in
/// successive seeded permutations on kRecommendConn, with an itinerary (on
/// kItineraryConn) taking every round(1 / itinerary_share)-th arrival from
/// a seeded phase on.
class RequestStream {
 public:
  RequestStream(uint64_t seed, int32_t recommends, int32_t itineraries,
                double itinerary_share);
  WireRequest Next();

 private:
  SeedStream rng_;
  int32_t recommends_;
  int32_t itineraries_;
  int itinerary_stride_;
  int since_itinerary_ = 0;
  std::vector<int32_t> order_;
  size_t pos_ = 0;
};

/// Stable key of a recommend request (sample, top_n, constraints): what
/// pairs a gateway span with the model batch that served it.
uint64_t RequestKey(const tspn::eval::RecommendRequest& request);

// --- Tracing -----------------------------------------------------------------

enum class Layer : int { kRouter = 0, kGateway = 1 };

struct HandlerRecord {
  Layer layer = Layer::kGateway;
  uint64_t frame_hash = 0;
  Ns start = 0;
  Ns end = 0;
};

struct BatchRecord {
  Ns start = 0;
  Ns end = 0;
  std::vector<uint64_t> keys;
};

/// In-memory span sink shared by the decorators and TimedTspnRa. Off by
/// default; while off, the seams cost one relaxed atomic load.
class Tracer {
 public:
  static Tracer& Global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(const HandlerRecord& record);
  void Record(BatchRecord record);

  std::vector<HandlerRecord> TakeHandlers();
  std::vector<BatchRecord> TakeBatches();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::vector<HandlerRecord> handlers_;
  std::vector<BatchRecord> batches_;
};

/// FrameHandler decorator: times HandleFrameAsync from entry to the reply
/// callback, keyed by the frame's hash.
class TracingHandler : public tspn::serve::FrameHandler {
 public:
  TracingHandler(tspn::serve::FrameHandler& inner, Layer layer)
      : inner_(inner), layer_(layer) {}

  void HandleFrameAsync(const std::vector<uint8_t>& frame,
                        FrameCallback done) override;

 private:
  tspn::serve::FrameHandler& inner_;
  const Layer layer_;
};

/// Registry name of the TSPN-RA subclass whose RecommendBatch is timed.
inline constexpr const char* kTimedModel = "TSPN-RA-timed";
void RegisterTimedModel();

// --- The stack ---------------------------------------------------------------

struct SetupTimes {
  double generate_s = 0.0;
  double train_s = 0.0;
  double save_s = 0.0;
  double deploy_s = 0.0;
  double listen_s = 0.0;
  double warmup_s = 0.0;
  double total_s = 0.0;
};

/// Pinned knobs, printed with every result.
struct Knobs {
  int engine_workers = 2;
  int64_t coalesce_us = 200;
  int64_t max_batch = 32;
  int64_t queue_depth = 1024;
  int io_threads = 1;
  int64_t conn_inflight = 64;
  int router_workers = 2;
  int64_t router_pool = 2;
  int64_t router_ping_ms = 0;
  int64_t dm = 32;
  int32_t image_resolution = 16;
  uint64_t model_seed = 7;
};

const Knobs& PinnedKnobs();

/// The model options every deployment and reference model is built with.
tspn::eval::ModelOptions PinnedModelOptions();

class Stack {
 public:
  /// `dir` holds the checkpoint and the unix sockets (short relative paths
  /// stay inside sun_path's limit wherever the checkout lives).
  Stack(const WorkloadSpec& spec, std::string dir, bool traced, uint64_t seed);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Builds everything and runs the warm-up pass. False with *error set
  /// when any step fails.
  bool Start(SetupTimes* times, std::string* error);
  void Stop();

  const tspn::common::SocketAddress& front_address() const { return front_address_; }
  std::shared_ptr<const tspn::data::CityDataset> dataset() const { return dataset_; }
  const Inputs& inputs() const { return inputs_; }
  const std::string& checkpoint() const { return checkpoint_; }
  tspn::serve::Gateway& gateway() { return *gateway_; }
  tspn::serve::FrameServer& front_server() {
    return router_server_ ? *router_server_ : *shard_server_;
  }
  tspn::serve::cluster::ShardRouter* router() { return router_.get(); }
  /// (user, traj) history keys the warm-up touched.
  const std::vector<int64_t>& warm_history_keys() const { return warm_keys_; }

 private:
  /// FrameServer(s), and the router for the routed shape.
  bool Listen(std::string* error);
  /// One closed-loop pass over the warm-up frames; every reply must be a
  /// response.
  bool WarmUp(std::string* error);

  const WorkloadSpec spec_;
  const std::string dir_;
  const bool traced_;
  const uint64_t seed_;
  std::string checkpoint_;
  std::string shard_path_;
  std::string front_path_;

  std::shared_ptr<tspn::data::CityDataset> dataset_;
  Inputs inputs_;
  std::vector<int64_t> warm_keys_;

  // Declaration order is teardown order in reverse: servers stop before
  // the handlers they drive, the router before the gateway behind it.
  std::unique_ptr<tspn::serve::Gateway> gateway_;
  std::unique_ptr<TracingHandler> gateway_tracer_;
  std::unique_ptr<tspn::serve::FrameServer> shard_server_;
  std::unique_ptr<tspn::serve::cluster::ShardRouter> router_;
  std::unique_ptr<TracingHandler> router_tracer_;
  std::unique_ptr<tspn::serve::FrameServer> router_server_;
  tspn::common::SocketAddress front_address_;
};

/// Packs a (user, trajectory) history key as TSPN-RA's graph cache does.
inline int64_t HistoryKey(int32_t user, int32_t traj) {
  return (static_cast<int64_t>(user) << 32) |
         static_cast<int64_t>(static_cast<uint32_t>(traj));
}

}  // namespace wirebench

#endif  // WIREBENCH_STACK_H_
