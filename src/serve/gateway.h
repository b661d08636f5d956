#ifndef TSPN_SERVE_GATEWAY_H_
#define TSPN_SERVE_GATEWAY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "eval/model_api.h"
#include "eval/model_registry.h"
#include "eval/recommend.h"
#include "plan/itinerary.h"
#include "serve/admission.h"
#include "serve/codec.h"
#include "serve/frame_handler.h"
#include "serve/inference_engine.h"

namespace tspn::serve {

/// Hysteresis-guarded graceful-degradation policy, evaluated per endpoint
/// against its engine's queue depth (docs/serving.md "Graceful
/// degradation"). The endpoint enters the degraded state when depth rises
/// to `degrade_high_pct` percent of the queue capacity and leaves it only
/// once depth falls back to `degrade_low_pct` percent — the gap prevents
/// flapping at the threshold. While degraded, requests are served shallower
/// (top_n clamped, stage-1 screen widening capped) and the lowest classes
/// are shed outright.
struct OverloadPolicy {
  int64_t degrade_high_pct = 75;  ///< enter degraded at this % of queue depth
  int64_t degrade_low_pct = 25;   ///< leave degraded at this % of queue depth
  int64_t degraded_top_n = 5;     ///< top_n cap while degraded; 0 = no cap
  /// Stage-1 screen cap while degraded; 0 = no cap.
  int64_t degraded_max_tiles = 64;
  /// Numeric Priority threshold (serve/admission.h): 0 sheds background
  /// traffic while degraded, 1 also sheds bulk, -1 sheds nothing by class.
  int64_t shed_priority_at_or_below = 0;
};

/// Everything needed to stand up one named endpoint: which registry model
/// to build, over which dataset, from which checkpoint, with which knobs.
struct DeployConfig {
  /// eval::ModelRegistry name ("TSPN-RA", "MC", ...). Unknown names fail
  /// the deploy.
  std::string model_name;

  /// Dataset the model is constructed over; shared so many endpoints (and
  /// the caller) can serve the same city without copies.
  std::shared_ptr<const data::CityDataset> dataset;

  /// Checkpoint restored into the freshly built model. Empty deploys the
  /// model untrained (useful for tests); a non-empty path that fails to
  /// load fails the deploy — a gateway must never silently serve garbage
  /// weights.
  std::string checkpoint_path;

  /// eval::ModelOptions as string knobs ("dm", "seed", "image_resolution"),
  /// parsed by ModelOptions::FromKeyValues — unknown keys fail the deploy
  /// loudly rather than falling back to defaults.
  std::map<std::string, std::string> model_options;

  /// Per-endpoint InferenceEngine sizing (workers, queue depth, coalescing).
  EngineOptions engine_options;

  /// Per-endpoint overload-degradation policy (thresholds, degraded caps,
  /// class shedding).
  OverloadPolicy overload;
};

/// Counters of the continual-training pipeline feeding an endpoint
/// (src/train/continual_trainer.h), surfaced through EndpointStats so one
/// stats scrape answers both "how is serving" and "is the trainer alive and
/// promoting". The serve layer does not depend on train/: a trainer
/// registers a telemetry provider callback via Gateway::AttachTrainer and
/// the gateway polls it at snapshot time.
struct TrainerTelemetry {
  bool attached = false;          ///< a trainer is registered on the endpoint
  int64_t events_consumed = 0;    ///< stream events drained
  int64_t samples_trained = 0;    ///< online samples the model stepped on
  int64_t samples_skipped = 0;    ///< cold-start / unresolvable samples
  int64_t checkpoints = 0;        ///< candidate checkpoints written
  int64_t gate_passes = 0;
  int64_t gate_rejects = 0;
  int64_t promotions = 0;         ///< gate pass + Swap landed
  int64_t promote_failures = 0;   ///< gate pass, Swap failed: nothing changed
  std::string last_checkpoint;    ///< newest candidate checkpoint path
};

using TrainerTelemetryFn = std::function<TrainerTelemetry()>;

/// Point-in-time serving counters for one endpoint, split into two scopes
/// (docs/serving.md "Window vs lifetime" spells out the semantics):
///
///  * the *window* — the current deployment only; resets on every swap
///    (engine counters, window_uptime_seconds, window_qps);
///  * the *lifetime* — cumulative since the endpoint's first Deploy,
///    carried across swaps (lifetime_* fields and the headline `qps`).
///
/// A retiring deployment's counters are folded into the lifetime totals
/// eagerly at swap time, then topped up with the post-swap drain's delta
/// when the old generation finishes tearing down — so right after a swap
/// the lifetime counters lag by at most the old generation's still-in-
/// flight requests, never by its whole history. Undeploy ends the
/// lifetime; a later Deploy of the same name starts a fresh one.
struct EndpointStats {
  std::string endpoint;
  std::string model_name;
  std::string checkpoint_path;  ///< checkpoint currently serving
  int64_t swaps = 0;            ///< hot swaps since Deploy

  // -- window: the current deployment --
  int64_t queue_depth = 0;      ///< requests queued, not yet being served
  double window_uptime_seconds = 0.0;  ///< since this deployment went live
  double window_qps = 0.0;      ///< completed / uptime of current deployment
  EngineStats engine;           ///< queue/batch/latency counters (window)

  // -- lifetime: cumulative across swaps --
  double uptime_seconds = 0.0;  ///< since the endpoint's first Deploy
  double qps = 0.0;             ///< lifetime_completed / uptime_seconds —
                                ///< does NOT reset on swap
  int64_t lifetime_submitted = 0;
  int64_t lifetime_completed = 0;
  int64_t lifetime_rejected = 0;
  int64_t lifetime_batches = 0;

  // -- overload robustness (lifetime scope) --
  int64_t shed_deadline = 0;     ///< refused: deadline not plausibly meetable
  int64_t shed_capacity = 0;     ///< refused/evicted at capacity + class sheds
  int64_t expired_in_queue = 0;  ///< accepted, expired before a batch slot
  int64_t degraded = 0;          ///< requests served with degraded shaping
  bool degraded_now = false;     ///< endpoint currently in the degraded state

  /// Continual-trainer counters; attached == false when no trainer is
  /// registered on the endpoint.
  TrainerTelemetry trainer;
};

/// Aggregate gateway snapshot: fleet totals plus one row per endpoint.
/// Totals are lifetime-scoped (they no longer dip when an endpoint swaps).
struct GatewayStats {
  int64_t endpoints = 0;
  int64_t total_submitted = 0;
  int64_t total_completed = 0;
  int64_t total_rejected = 0;
  int64_t total_swaps = 0;
  int64_t total_shed_deadline = 0;
  int64_t total_shed_capacity = 0;
  int64_t total_expired_in_queue = 0;
  int64_t total_degraded = 0;
  double total_qps = 0.0;  ///< sum of per-endpoint lifetime qps
  std::vector<EndpointStats> per_endpoint;  ///< sorted by endpoint name
};

/// Multi-tenant serving gateway: a thread-safe router from endpoint names
/// to {model, InferenceEngine} deployments, so several models — different
/// cities, TSPN-RA next to baselines, A/B candidates — serve side by side
/// in one process.
///
/// Lifecycle: Deploy() builds the model through eval::ModelRegistry,
/// restores the checkpoint, and stands up a dedicated engine; Swap()
/// hot-reloads a new checkpoint with zero downtime; Undeploy() drains and
/// tears down. Each lifecycle call blocks only its caller until the
/// operation has landed or failed; a caller that must not block runs it on
/// its own thread. Requests enter only as wire frames (serve/codec.h),
/// through HandleFrameAsync — the seam a socket front-end plugs into.
///
/// Hot-swap semantics (epoch via shared_ptr): each endpoint holds its
/// current deployment behind a shared_ptr that submitters copy under the
/// gateway mutex. Swap() builds the replacement *outside* the lock, then
/// publishes it with one pointer swap — new submits instantly land on the
/// new model while in-flight requests finish on the old deployment, which
/// is destroyed (draining its queue first, so no accepted request is ever
/// dropped) when the last submitter releases it. A swap to the same
/// checkpoint is response-bit-identical: the registry rebuilds the same
/// weights from the same options and checkpoint bytes.
class Gateway : public FrameHandler {
 public:
  Gateway() = default;
  ~Gateway() override;

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Creates the named endpoint. Fails (false, *error set) on a duplicate
  /// endpoint name, unknown model name, bad model option, missing dataset,
  /// or a checkpoint that does not load cleanly.
  bool Deploy(const std::string& endpoint, const DeployConfig& config,
              std::string* error = nullptr);

  /// Hot-reloads the endpoint onto `checkpoint_path` (same model, dataset
  /// and knobs as the original Deploy). In-flight requests finish on the
  /// old weights; requests submitted after Swap returns see the new ones.
  /// The swap either lands before Swap returns true or never lands: on
  /// false the endpoint still serves the generation it served before.
  bool Swap(const std::string& endpoint, const std::string& checkpoint_path,
            std::string* error = nullptr);

  /// Removes the endpoint, serving everything already queued before the
  /// teardown completes. Later frames addressed to the name get a
  /// kUnknownEndpoint error frame.
  bool Undeploy(const std::string& endpoint, std::string* error = nullptr);

  /// Live itinerary plan workers are capped here: a plan blocks one thread
  /// across its rollout waves, and a client pipelining itinerary frames
  /// must not make the gateway start a thread per frame. At the cap an
  /// itinerary frame is answered kShedCapacity without starting a thread.
  static constexpr size_t kMaxPlanWorkers = 16;

  /// The wire entry point, what FrameServer drives. Decodes and validates
  /// on the calling thread, then hands the request to the endpoint engine's
  /// continuation submit; `done` is invoked exactly once with the reply
  /// frame: synchronously for control frames (pong, stats) and refusals
  /// (decode error, unknown endpoint, invalid request, overload — error
  /// frames), otherwise later on a serving worker or a plan worker. A
  /// concurrent Swap/Undeploy cannot strand the request: a deployment
  /// drains its queue — running every accepted continuation — before it is
  /// torn down. Never throws, never blocks.
  void HandleFrameAsync(const std::vector<uint8_t>& frame,
                        FrameCallback done) override;

  /// Blocking form of HandleFrameAsync for tests and demos: returns the
  /// reply frame it hands to its callback, parking the calling thread until
  /// then.
  std::vector<uint8_t> ServeFrame(const std::vector<uint8_t>& request_frame);

  bool Has(const std::string& endpoint) const;

  /// Deployed endpoint names, sorted.
  std::vector<std::string> Endpoints() const;

  /// Registers a continual trainer's telemetry provider on an endpoint; the
  /// callback is polled (outside the gateway mutex) whenever stats are
  /// snapshotted, so trainer counters ride the existing stats surface. One
  /// provider per endpoint; a second Attach replaces the first. The
  /// callback must be thread-safe and must outlive the registration —
  /// detach before destroying the trainer.
  void AttachTrainer(const std::string& endpoint, TrainerTelemetryFn provider);
  void DetachTrainer(const std::string& endpoint);

  /// Stats for one endpoint; false when it is not deployed.
  bool GetEndpointStats(const std::string& endpoint, EndpointStats* out) const;

  /// Aggregate snapshot across every deployed endpoint.
  GatewayStats Snapshot() const;

  /// The Snapshot projected onto the wire stats rows a kStatsResponse
  /// frame carries — what this process reports when a router polls it.
  WireStatsSnapshot WireSnapshot() const;

 private:
  /// Per-endpoint counters that survive swaps. Shared (via shared_ptr) by
  /// the Endpoint entry and every Deployment generation. A retiring
  /// deployment folds its counters in twice: eagerly at swap time (so the
  /// lifetime totals reflect its history immediately) and finally from its
  /// destructor after the drain — FoldCounters adds only the delta since
  /// the previous fold, so no request is double-counted or lost no matter
  /// when the swap landed.
  struct CumulativeCounters {
    std::atomic<int64_t> submitted{0};
    std::atomic<int64_t> completed{0};
    std::atomic<int64_t> rejected{0};
    std::atomic<int64_t> batches{0};
    std::atomic<int64_t> shed_deadline{0};
    std::atomic<int64_t> shed_capacity{0};
    std::atomic<int64_t> expired_in_queue{0};
    std::atomic<int64_t> degraded{0};
  };

  /// One served model generation: the engine references the model, so the
  /// member order (model first) makes ~Deployment shut the engine down —
  /// draining queued requests — before the model dies.
  struct Deployment {
    DeployConfig config;
    std::unique_ptr<eval::NextPoiModel> model;
    std::unique_ptr<InferenceEngine> engine;

    /// Itinerary planner over this generation's model. Its scorer submits
    /// every rollout wave through `engine`, so plan expansions coalesce
    /// with live recommendation traffic; declared after the engine so it
    /// is destroyed first.
    std::unique_ptr<plan::ItineraryPlanner> planner;

    std::chrono::steady_clock::time_point live_since;
    std::shared_ptr<CumulativeCounters> cumulative;

    /// Overload state (hysteresis, see OverloadPolicy) and the gateway-side
    /// counters it drives. Atomics: the submit paths race on them freely.
    std::atomic<bool> degraded{false};
    std::atomic<int64_t> degraded_served{0};  ///< shaped-and-served requests
    std::atomic<int64_t> class_shed{0};  ///< shed by class while degraded

    /// Folds this generation's counter deltas (engine + gateway-side) into
    /// the shared lifetime totals. Idempotent and incremental: fold_mutex
    /// serializes folders, and already_folded_ remembers what previous
    /// folds contributed so each request is counted exactly once. Called
    /// eagerly by Swap right after the install, and finally by
    /// the destructor after the drain.
    void FoldCounters();

    /// Exact lifetime counters for the endpoint while this generation is
    /// live: the shared cumulative totals plus this generation's
    /// not-yet-folded delta, read under fold_mutex_ so a concurrent eager
    /// fold can neither double-count nor drop the delta.
    struct LifetimeTotals {
      int64_t submitted = 0;
      int64_t completed = 0;
      int64_t rejected = 0;
      int64_t batches = 0;
      int64_t shed_deadline = 0;
      int64_t shed_capacity = 0;
      int64_t expired_in_queue = 0;
      int64_t degraded = 0;
    };
    LifetimeTotals GetLifetimeTotals();

    ~Deployment();

   private:
    std::mutex fold_mutex_;
    EngineStats already_folded_;
    int64_t degraded_folded_ = 0;
    int64_t class_shed_folded_ = 0;
  };

  struct Endpoint {
    std::shared_ptr<Deployment> current;  ///< never null
    int64_t swaps = 0;
    std::shared_ptr<CumulativeCounters> cumulative;
    std::chrono::steady_clock::time_point first_live;
  };

  /// Everything StatsOf needs, snapshotted under the gateway mutex so the
  /// engine-stats queries can run with it released.
  struct EndpointSnapshot {
    std::string name;
    std::shared_ptr<Deployment> deployment;
    int64_t swaps = 0;
    std::shared_ptr<CumulativeCounters> cumulative;
    std::chrono::steady_clock::time_point first_live;
  };

  /// Builds model + engine from the config (registry create, option parse,
  /// checkpoint load). Null with *error set on any failure.
  static std::shared_ptr<Deployment> BuildDeployment(const DeployConfig& config,
                                                     std::string* error);

  /// The endpoint's current deployment, or null when not deployed.
  std::shared_ptr<Deployment> CurrentDeployment(
      const std::string& endpoint) const;

  /// Evaluates the deployment's hysteresis-guarded overload state from its
  /// queue depth, and while degraded applies the policy to the request:
  /// clamps top_n, caps the stage-1 screen, and sheds the configured low
  /// classes. Returns false when the request must be shed instead of
  /// submitted (counted in class_shed).
  static bool ShapeForOverload(Deployment& deployment,
                               eval::RecommendRequest* request,
                               Priority priority);

  /// Installs a live deployment into the endpoint entry under the mutex:
  /// first generation gets fresh cumulative counters and the first_live
  /// stamp; later generations inherit both.
  static void InstallLocked(Endpoint& entry,
                            std::shared_ptr<Deployment> deployment);

  /// Runs `op` on a new plan worker thread, reaping finished predecessors.
  /// False, with no thread started, when kMaxPlanWorkers are still running.
  bool TryStartPlanWorker(std::function<void()> op);

  /// Queries one deployment's engine; called with the gateway mutex
  /// released (the shared_ptrs keep the deployment alive).
  static EndpointStats StatsOf(const EndpointSnapshot& snapshot);

  /// Serves the non-request frames HandleFrameAsync dispatches to: pings
  /// come back as pongs, stats requests as a stats snapshot, anything else
  /// (a response/error/pong frame aimed at a server) as a kBadFrame error.
  std::vector<uint8_t> ServeControlFrame(FrameType type,
                                         const std::vector<uint8_t>& frame);

  /// Serves one kItineraryRequest frame end to end (decode, resolve the
  /// endpoint, plan, encode): a kItineraryResponse frame on success, an
  /// error frame otherwise. Blocking — HandleFrameAsync runs it on a plan
  /// worker (TryStartPlanWorker), never on the transport thread.
  std::vector<uint8_t> ServeItineraryFrame(const std::vector<uint8_t>& frame);

  /// The endpoint's trainer provider (copied under the mutex, invoked with
  /// it released), or null when none is attached.
  TrainerTelemetryFn TrainerProviderOf(const std::string& endpoint) const;

  mutable std::mutex mutex_;
  std::map<std::string, Endpoint> endpoints_;
  std::map<std::string, TrainerTelemetryFn> trainer_providers_;

  /// Itinerary plan workers, at most kMaxPlanWorkers. Finished ones are
  /// reaped when the next one starts; the destructor joins whatever
  /// remains.
  struct PlanWorker {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<PlanWorker> plan_workers_;
};

}  // namespace tspn::serve

#endif  // TSPN_SERVE_GATEWAY_H_
