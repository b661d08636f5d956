#include "serve/gateway.h"

#include <algorithm>
#include <future>
#include <system_error>
#include <utility>

#include "serve/codec.h"

namespace tspn::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Maps an engine shed reason to the wire classification.
ErrorCode CodeForShed(ShedReason reason) {
  switch (reason) {
    case ShedReason::kDeadlineUnmeetable: return ErrorCode::kShedDeadline;
    case ShedReason::kExpired: return ErrorCode::kExpired;
    case ShedReason::kCapacity:
    case ShedReason::kEvicted:
    case ShedReason::kShutdown: return ErrorCode::kShedCapacity;
    case ShedReason::kNone: break;
  }
  return ErrorCode::kGeneric;
}

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

/// Guards the serving threads against out-of-range requests: dataset
/// accessors bounds-check with TSPN_CHECK, which aborts the process — a
/// wire frame with a bogus sample index must come back as an error frame,
/// never kill the gateway.
/// Returns an empty string when the request is servable.
std::string ValidateRequest(const data::CityDataset& dataset,
                            const eval::RecommendRequest& request) {
  if (request.top_n < 0) return "top_n must be non-negative";
  if (!request.constraints.FenceFinite()) {
    return "geo_center and geo_radius_km must be finite";
  }
  const auto& users = dataset.users();
  if (request.sample.user < 0 ||
      static_cast<size_t>(request.sample.user) >= users.size()) {
    return "sample.user out of range";
  }
  const auto& trajectories =
      users[static_cast<size_t>(request.sample.user)].trajectories;
  if (request.sample.traj < 0 ||
      static_cast<size_t>(request.sample.traj) >= trajectories.size()) {
    return "sample.traj out of range";
  }
  const auto& checkins =
      trajectories[static_cast<size_t>(request.sample.traj)].checkins;
  // prefix_len check-ins observed, checkins[prefix_len] is the target: a
  // servable sample needs at least one observed check-in and a target slot.
  if (request.sample.prefix_len < 1 ||
      static_cast<size_t>(request.sample.prefix_len) >= checkins.size()) {
    return "sample.prefix_len out of range";
  }
  return "";
}

}  // namespace

void Gateway::Deployment::FoldCounters() {
  if (engine == nullptr || cumulative == nullptr) return;
  // Incremental fold: add only what previous folds have not contributed.
  // fold_mutex_ makes the read-delta-update atomic against a concurrent
  // folder (eager swap fold racing the destructor's final fold).
  std::lock_guard<std::mutex> lock(fold_mutex_);
  const EngineStats now = engine->GetStats();
  cumulative->submitted.fetch_add(now.submitted - already_folded_.submitted);
  cumulative->completed.fetch_add(now.completed - already_folded_.completed);
  cumulative->rejected.fetch_add(now.rejected - already_folded_.rejected);
  cumulative->batches.fetch_add(now.batches - already_folded_.batches);
  cumulative->shed_deadline.fetch_add(now.shed_deadline -
                                      already_folded_.shed_deadline);
  cumulative->shed_capacity.fetch_add(now.shed_capacity -
                                      already_folded_.shed_capacity);
  cumulative->expired_in_queue.fetch_add(now.expired_in_queue -
                                         already_folded_.expired_in_queue);
  already_folded_ = now;
  // Gateway-side counters fold the same way. Class sheds are capacity sheds
  // in the lifetime ledger: the request was refused because the endpoint
  // had no room for its class.
  const int64_t degraded_now = degraded_served.load();
  const int64_t class_shed_now = class_shed.load();
  cumulative->degraded.fetch_add(degraded_now - degraded_folded_);
  cumulative->shed_capacity.fetch_add(class_shed_now - class_shed_folded_);
  cumulative->rejected.fetch_add(class_shed_now - class_shed_folded_);
  degraded_folded_ = degraded_now;
  class_shed_folded_ = class_shed_now;
}

Gateway::Deployment::LifetimeTotals Gateway::Deployment::GetLifetimeTotals() {
  std::lock_guard<std::mutex> lock(fold_mutex_);
  LifetimeTotals totals;
  // Holding fold_mutex_ freezes already_folded_ AND this generation's
  // contributions to `cumulative`, so adding (now - already_folded_) on top
  // of the cumulative read is exact no matter when a swap's eager fold
  // lands. Other (retired) generations' folds only ever grow cumulative by
  // their own deltas — no overlap with ours.
  if (engine != nullptr) {
    const EngineStats now = engine->GetStats();
    totals.submitted = now.submitted - already_folded_.submitted;
    totals.completed = now.completed - already_folded_.completed;
    totals.rejected = now.rejected - already_folded_.rejected;
    totals.batches = now.batches - already_folded_.batches;
    totals.shed_deadline = now.shed_deadline - already_folded_.shed_deadline;
    totals.shed_capacity = now.shed_capacity - already_folded_.shed_capacity;
    totals.expired_in_queue =
        now.expired_in_queue - already_folded_.expired_in_queue;
  }
  const int64_t class_shed_delta = class_shed.load() - class_shed_folded_;
  totals.degraded = degraded_served.load() - degraded_folded_;
  totals.shed_capacity += class_shed_delta;
  totals.rejected += class_shed_delta;
  if (cumulative != nullptr) {
    totals.submitted += cumulative->submitted.load();
    totals.completed += cumulative->completed.load();
    totals.rejected += cumulative->rejected.load();
    totals.batches += cumulative->batches.load();
    totals.shed_deadline += cumulative->shed_deadline.load();
    totals.shed_capacity += cumulative->shed_capacity.load();
    totals.expired_in_queue += cumulative->expired_in_queue.load();
    totals.degraded += cumulative->degraded.load();
  }
  return totals;
}

Gateway::Deployment::~Deployment() {
  // Drain before teardown: Shutdown() serves everything already queued and
  // joins the workers, so no accepted request's continuation is dropped.
  if (engine != nullptr) {
    engine->Shutdown();
    // Final fold, after the drain: the eager fold at swap time already
    // contributed this generation's history, so only the post-swap
    // stragglers' delta lands here — every request counted exactly once.
    FoldCounters();
  }
}

void Gateway::InstallLocked(Endpoint& entry,
                           std::shared_ptr<Deployment> deployment) {
  if (entry.cumulative == nullptr) {
    // First generation for this endpoint name: the lifetime clock and
    // counters start here. Later generations inherit both across swaps.
    entry.cumulative = std::make_shared<CumulativeCounters>();
    entry.first_live = deployment->live_since;
  }
  deployment->cumulative = entry.cumulative;
  entry.current = std::move(deployment);
}

std::shared_ptr<Gateway::Deployment> Gateway::BuildDeployment(
    const DeployConfig& config, std::string* error) {
  if (config.dataset == nullptr) {
    SetError(error, "deploy config has no dataset");
    return nullptr;
  }
  eval::ModelOptions options;
  std::string option_error;
  if (!eval::ModelOptions::FromKeyValues(config.model_options, &options,
                                         &option_error)) {
    SetError(error, "bad model options: " + option_error);
    return nullptr;
  }
  std::unique_ptr<eval::NextPoiModel> model =
      eval::ModelRegistry::Global().Create(config.model_name, config.dataset,
                                           options);
  if (model == nullptr) {
    SetError(error, "unknown model '" + config.model_name + "' (registered: " +
                        [] {
                          std::string names;
                          for (const std::string& n :
                               eval::ModelRegistry::Global().Names()) {
                            if (!names.empty()) names += ", ";
                            names += n;
                          }
                          return names;
                        }() +
                        ")");
    return nullptr;
  }
  if (!config.checkpoint_path.empty() &&
      !model->LoadCheckpoint(config.checkpoint_path)) {
    SetError(error, "checkpoint '" + config.checkpoint_path +
                        "' failed to load into model '" + config.model_name +
                        "'");
    return nullptr;
  }
  auto deployment = std::make_shared<Deployment>();
  deployment->config = config;
  deployment->model = std::move(model);
  deployment->engine = std::make_unique<InferenceEngine>(
      *deployment->model, config.engine_options);
  deployment->planner = std::make_unique<plan::ItineraryPlanner>(
      *deployment->model, config.dataset);
  // The planner's rollout waves ride this generation's engine: the whole
  // frontier is submitted before any future is collected, so the engine's
  // coalescer turns each wave into one RecommendBatch call and plan traffic
  // shares the queue (and its backpressure) with live recommendations. The
  // raw pointer is safe: the deployment owns both, planner declared after
  // engine.
  deployment->planner->set_scorer(
      [engine = deployment->engine.get()](
          common::Span<eval::RecommendRequest> requests) {
        std::vector<std::future<eval::RecommendResponse>> futures;
        futures.reserve(requests.size());
        for (size_t i = 0; i < requests.size(); ++i) {
          futures.push_back(engine->Submit(requests[i]));
        }
        std::vector<eval::RecommendResponse> responses;
        responses.reserve(futures.size());
        for (auto& future : futures) responses.push_back(future.get());
        return responses;
      });
  deployment->live_since = Clock::now();
  return deployment;
}

bool Gateway::Deploy(const std::string& endpoint, const DeployConfig& config,
                     std::string* error) {
  if (endpoint.empty()) {
    SetError(error, "endpoint name must be non-empty");
    return false;
  }
  if (endpoint.size() > kMaxEndpointNameLen) {
    // The wire decoder caps endpoint names; a longer name would deploy an
    // endpoint that ServeFrame could never address.
    SetError(error, "endpoint name exceeds " +
                        std::to_string(kMaxEndpointNameLen) + " bytes");
    return false;
  }
  // Cheap duplicate pre-check before the expensive build; the authoritative
  // recheck under the lock below still handles a racing deploy.
  if (Has(endpoint)) {
    SetError(error, "endpoint '" + endpoint +
                        "' is already deployed (use Swap to hot-reload)");
    return false;
  }
  // Built outside the lock: model construction + checkpoint restore can be
  // slow, and other endpoints must keep serving meanwhile.
  std::shared_ptr<Deployment> deployment = BuildDeployment(config, error);
  if (deployment == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = endpoints_.try_emplace(endpoint);
    if (!inserted) {
      SetError(error, "endpoint '" + endpoint +
                          "' is already deployed (use Swap to hot-reload)");
      return false;
    }
    InstallLocked(it->second, std::move(deployment));
  }
  return true;
}

bool Gateway::Swap(const std::string& endpoint,
                   const std::string& checkpoint_path, std::string* error) {
  // Snapshot the endpoint's deployment, build the replacement outside the
  // lock (zero downtime: the old deployment keeps serving during the build).
  std::shared_ptr<Deployment> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = endpoints_.find(endpoint);
    if (it == endpoints_.end()) {
      SetError(error, "endpoint '" + endpoint + "' is not deployed");
      return false;
    }
    snapshot = it->second.current;
  }
  DeployConfig config = snapshot->config;
  config.checkpoint_path = checkpoint_path;
  std::shared_ptr<Deployment> fresh = BuildDeployment(config, error);
  if (fresh == nullptr) return false;

  std::shared_ptr<Deployment> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = endpoints_.find(endpoint);
    // The swap only lands on the generation it snapshotted: if the endpoint
    // was undeployed — or undeployed and redeployed as something else —
    // while we were building, installing `fresh` would silently revert that
    // lifecycle change, so the swap aborts and discards the build instead
    // (it never accepted a request).
    if (it == endpoints_.end() || it->second.current != snapshot) {
      SetError(error, "endpoint '" + endpoint + "' changed during swap");
      return false;
    }
    old = std::move(it->second.current);
    InstallLocked(it->second, std::move(fresh));
    ++it->second.swaps;
  }
  // Eager partial fold, outside the gateway mutex: the retiring
  // generation's history lands in the lifetime totals NOW, so a stats
  // scrape right after the swap sees at most the still-in-flight
  // stragglers' lag — not a whole generation's worth.
  old->FoldCounters();
  // `old` dies here (or when the last in-flight submitter releases it):
  // its engine drains every queued request against the old weights first,
  // then folds the remaining delta into the endpoint's lifetime totals.
  return true;
}

bool Gateway::TryStartPlanWorker(std::function<void()> op) {
  // Reap workers that already finished, so the list holds only live plans.
  // The joins run with the gateway mutex RELEASED: a finished worker's
  // epilogue is trivial, but holding mutex_ across any join would stall
  // every frame on every endpoint if that ever stopped being true. The
  // count check and the start share one critical section, so concurrent
  // callers can never overshoot the cap.
  std::vector<PlanWorker> finished;
  bool started = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = plan_workers_.begin(); it != plan_workers_.end();) {
      if (it->done->load()) {
        finished.push_back(std::move(*it));
        it = plan_workers_.erase(it);
      } else {
        ++it;
      }
    }
    if (plan_workers_.size() < kMaxPlanWorkers) {
      auto done = std::make_shared<std::atomic<bool>>(false);
      try {
        std::thread thread([op = std::move(op), done] {
          op();
          done->store(true);
        });
        plan_workers_.push_back({std::move(thread), std::move(done)});
        started = true;
      } catch (const std::system_error&) {
        // The OS refused a thread: answered like the cap, as a shed.
      }
    }
  }
  for (PlanWorker& worker : finished) worker.thread.join();
  return started;
}

bool Gateway::Undeploy(const std::string& endpoint, std::string* error) {
  std::shared_ptr<Deployment> removed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = endpoints_.find(endpoint);
    if (it == endpoints_.end()) {
      SetError(error, "endpoint '" + endpoint + "' is not deployed");
      return false;
    }
    removed = std::move(it->second.current);
    endpoints_.erase(it);
  }
  // Drain outside the lock so teardown of one endpoint cannot stall the
  // others' submits.
  removed.reset();
  return true;
}

std::shared_ptr<Gateway::Deployment> Gateway::CurrentDeployment(
    const std::string& endpoint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = endpoints_.find(endpoint);
  if (it == endpoints_.end()) return nullptr;
  return it->second.current;
}

bool Gateway::ShapeForOverload(Deployment& deployment,
                               eval::RecommendRequest* request,
                               Priority priority) {
  const OverloadPolicy& policy = deployment.config.overload;
  const int64_t capacity = deployment.config.engine_options.max_queue_depth;
  const int64_t depth = deployment.engine->QueueDepth();
  // Hysteresis: enter at high-water, leave at low-water. The atomic races
  // with concurrent submitters benignly — the worst case is two requests
  // near a threshold disagreeing about the state by one transition.
  bool degraded = deployment.degraded.load(std::memory_order_relaxed);
  if (!degraded) {
    if (capacity > 0 && depth * 100 >= capacity * policy.degrade_high_pct) {
      degraded = true;
      deployment.degraded.store(true, std::memory_order_relaxed);
    }
  } else if (capacity <= 0 ||
             depth * 100 <= capacity * policy.degrade_low_pct) {
    degraded = false;
    deployment.degraded.store(false, std::memory_order_relaxed);
  }
  if (!degraded) return true;
  if (policy.shed_priority_at_or_below >= 0 &&
      static_cast<int64_t>(static_cast<uint8_t>(priority)) <=
          policy.shed_priority_at_or_below) {
    deployment.class_shed.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Serve shallower instead of shedding: clamp the ranking depth and cap
  // the stage-1 screen so each degraded request costs a bounded slice of
  // the tile scan (core/tspn_ra.h GatherAllowedCandidates).
  if (policy.degraded_top_n > 0 && request->top_n > policy.degraded_top_n) {
    request->top_n = policy.degraded_top_n;
  }
  if (policy.degraded_max_tiles > 0) {
    request->max_tiles_screened = policy.degraded_max_tiles;
  }
  deployment.degraded_served.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::vector<uint8_t> Gateway::ServeItineraryFrame(
    const std::vector<uint8_t>& frame) {
  std::string endpoint;
  plan::ItineraryRequest request;
  const DecodeStatus status = DecodeItineraryRequest(frame, &endpoint, &request);
  if (status != DecodeStatus::kOk) {
    return EncodeErrorFrame(std::string("bad itinerary request frame: ") +
                                DecodeStatusName(status),
                            ErrorCode::kBadFrame);
  }
  // Pinning the generation keeps model + engine + planner alive for the
  // whole (blocking) search.
  std::shared_ptr<Deployment> deployment = CurrentDeployment(endpoint);
  if (deployment == nullptr) {
    return EncodeErrorFrame("no endpoint '" + endpoint + "' is deployed",
                            ErrorCode::kUnknownEndpoint);
  }
  try {
    plan::ItineraryResponse response;
    std::string error;
    // Plan refuses only requests that fail its validation.
    if (!deployment->planner->Plan(request, &response, &error)) {
      return EncodeErrorFrame(error, ErrorCode::kInvalidRequest);
    }
    return EncodeItineraryResponse(response);
  } catch (const ShedError& e) {
    // A rollout wave can be refused by the endpoint's admission control —
    // the plan inherits the shed, like any other rejected workload.
    return EncodeErrorFrame(e.what(), CodeForShed(e.reason()));
  } catch (const std::exception& e) {
    return EncodeErrorFrame(e.what(), ErrorCode::kModelFailure);
  } catch (...) {
    return EncodeErrorFrame("itinerary request failed", ErrorCode::kGeneric);
  }
}

std::vector<uint8_t> Gateway::ServeControlFrame(
    FrameType type, const std::vector<uint8_t>& frame) {
  if (type == FrameType::kPing) {
    uint64_t nonce = 0;
    if (DecodePingFrame(frame, &nonce) != DecodeStatus::kOk) {
      return EncodeErrorFrame("bad ping frame", ErrorCode::kBadFrame);
    }
    return EncodePongFrame(nonce);
  }
  if (type == FrameType::kStatsRequest) {
    if (DecodeStatsRequest(frame) != DecodeStatus::kOk) {
      return EncodeErrorFrame("bad stats request frame", ErrorCode::kBadFrame);
    }
    return EncodeStatsResponse(WireSnapshot());
  }
  // A well-formed frame of a type a server never accepts (a response, an
  // error, a pong, a stats response) — the peer has the protocol backwards.
  return EncodeErrorFrame("frame type not servable by this endpoint",
                          ErrorCode::kBadFrame);
}

std::vector<uint8_t> Gateway::ServeFrame(const std::vector<uint8_t>& request_frame) {
  // The callback shares the promise: set_value may still be returning on a
  // serving worker after get() has woken this thread.
  auto reply = std::make_shared<std::promise<std::vector<uint8_t>>>();
  std::future<std::vector<uint8_t>> future = reply->get_future();
  HandleFrameAsync(request_frame, [reply](std::vector<uint8_t> frame) {
    reply->set_value(std::move(frame));
  });
  return future.get();
}

void Gateway::HandleFrameAsync(const std::vector<uint8_t>& request_frame,
                               FrameCallback done) {
  FrameType frame_type = FrameType::kRequest;
  if (PeekFrameType(request_frame, &frame_type) == DecodeStatus::kOk &&
      frame_type != FrameType::kRequest) {
    if (frame_type == FrameType::kItineraryRequest) {
      // A plan blocks across several rollout waves — far too heavy for the
      // transport thread. A plan worker runs it; the gateway destructor
      // joins every worker, so `done` always fires. `done` is copied into
      // the worker: when none can start, it still answers the shed here.
      if (!TryStartPlanWorker([this, frame = request_frame, done] {
            done(ServeItineraryFrame(frame));
          })) {
        done(EncodeErrorFrame("itinerary shed (kCapacity): " +
                                  std::to_string(kMaxPlanWorkers) +
                                  " plans already running",
                              ErrorCode::kShedCapacity));
      }
      return;
    }
    // Control frames are cheap (a nonce echo, a stats scrape) — answering
    // synchronously keeps health probes immune to engine-queue pressure.
    done(ServeControlFrame(frame_type, request_frame));
    return;
  }
  std::string endpoint;
  eval::RecommendRequest request;
  AdmissionClass admission;
  const DecodeStatus status =
      DecodeRecommendRequest(request_frame, &endpoint, &request, &admission);
  if (status != DecodeStatus::kOk) {
    done(EncodeErrorFrame(
        std::string("bad request frame: ") + DecodeStatusName(status),
        ErrorCode::kBadFrame));
    return;
  }
  std::shared_ptr<Deployment> deployment = CurrentDeployment(endpoint);
  if (deployment == nullptr) {
    done(EncodeErrorFrame("no endpoint '" + endpoint + "' is deployed",
                          ErrorCode::kUnknownEndpoint));
    return;
  }
  const std::string invalid =
      ValidateRequest(*deployment->config.dataset, request);
  if (!invalid.empty()) {
    done(EncodeErrorFrame(
        "invalid request for endpoint '" + endpoint + "': " + invalid,
        ErrorCode::kInvalidRequest));
    return;
  }
  if (!ShapeForOverload(*deployment, &request, admission.priority)) {
    done(EncodeErrorFrame("request shed (kCapacity): endpoint '" + endpoint +
                              "' is degraded and sheds " +
                              std::string(PriorityName(admission.priority)) +
                              " traffic",
                          ErrorCode::kShedCapacity));
    return;
  }
  // The continuation deliberately does NOT capture the deployment: it does
  // not need it (the response is fully computed before the callback runs,
  // and ~Deployment's drain guarantees every queued continuation runs
  // before the engine/model die), and owning it would be a self-join
  // hazard — the callback runs on the deployment's own engine worker, so
  // dropping the last reference there would make the worker join itself in
  // Shutdown.
  // `done` is copied (not moved) into the continuation because a rejected
  // submit never runs it — the overload error below still needs the
  // original.
  ShedReason shed_reason = ShedReason::kNone;
  const bool accepted = deployment->engine->TrySubmitAsync(
      std::move(request), admission,
      [done](eval::RecommendResponse response, std::exception_ptr error) {
        if (error != nullptr) {
          try {
            std::rethrow_exception(error);
          } catch (const ShedError& e) {
            done(EncodeErrorFrame(e.what(), CodeForShed(e.reason())));
          } catch (const std::exception& e) {
            done(EncodeErrorFrame(e.what(), ErrorCode::kModelFailure));
          } catch (...) {
            done(EncodeErrorFrame("request failed", ErrorCode::kGeneric));
          }
          return;
        }
        done(EncodeRecommendResponse(response));
      },
      &shed_reason);
  if (!accepted) {
    done(EncodeErrorFrame(
        "request shed (" + std::string(ShedReasonName(shed_reason)) +
            "): endpoint '" + endpoint + "' is overloaded",
        CodeForShed(shed_reason)));
  }
}

bool Gateway::Has(const std::string& endpoint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return endpoints_.count(endpoint) > 0;
}

std::vector<std::string> Gateway::Endpoints() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(endpoints_.size());
  for (const auto& [name, ep] : endpoints_) names.push_back(name);
  return names;
}

EndpointStats Gateway::StatsOf(const EndpointSnapshot& snapshot) {
  const auto now = Clock::now();
  const std::shared_ptr<Deployment>& deployment = snapshot.deployment;
  EndpointStats stats;
  stats.endpoint = snapshot.name;
  stats.model_name = deployment->config.model_name;
  stats.checkpoint_path = deployment->config.checkpoint_path;
  stats.swaps = snapshot.swaps;

  // Window: the current deployment's engine and uptime.
  stats.queue_depth = deployment->engine->QueueDepth();
  stats.engine = deployment->engine->GetStats();
  stats.window_uptime_seconds =
      std::chrono::duration<double>(now - deployment->live_since).count();
  stats.window_qps = stats.window_uptime_seconds > 0.0
                         ? static_cast<double>(stats.engine.completed) /
                               stats.window_uptime_seconds
                         : 0.0;

  // Lifetime: counters retired deployments folded in, plus the live
  // generation's unfolded delta — computed together under the fold mutex
  // so a racing swap's eager fold cannot double-count the live window.
  const Deployment::LifetimeTotals lifetime = deployment->GetLifetimeTotals();
  stats.lifetime_submitted = lifetime.submitted;
  stats.lifetime_completed = lifetime.completed;
  stats.lifetime_rejected = lifetime.rejected;
  stats.lifetime_batches = lifetime.batches;
  stats.shed_deadline = lifetime.shed_deadline;
  stats.shed_capacity = lifetime.shed_capacity;
  stats.expired_in_queue = lifetime.expired_in_queue;
  stats.degraded = lifetime.degraded;
  stats.degraded_now = deployment->degraded.load(std::memory_order_relaxed);
  stats.uptime_seconds =
      std::chrono::duration<double>(now - snapshot.first_live).count();
  stats.qps = stats.uptime_seconds > 0.0
                  ? static_cast<double>(stats.lifetime_completed) /
                        stats.uptime_seconds
                  : 0.0;
  return stats;
}

void Gateway::AttachTrainer(const std::string& endpoint,
                            TrainerTelemetryFn provider) {
  std::lock_guard<std::mutex> lock(mutex_);
  trainer_providers_[endpoint] = std::move(provider);
}

void Gateway::DetachTrainer(const std::string& endpoint) {
  std::lock_guard<std::mutex> lock(mutex_);
  trainer_providers_.erase(endpoint);
}

TrainerTelemetryFn Gateway::TrainerProviderOf(
    const std::string& endpoint) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = trainer_providers_.find(endpoint);
  return it == trainer_providers_.end() ? nullptr : it->second;
}

bool Gateway::GetEndpointStats(const std::string& endpoint,
                               EndpointStats* out) const {
  EndpointSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = endpoints_.find(endpoint);
    if (it == endpoints_.end()) return false;
    snapshot = {endpoint, it->second.current, it->second.swaps,
                it->second.cumulative, it->second.first_live};
  }
  // Engine-stats queries (their own mutex, percentile computation) run with
  // the gateway mutex released so they never stall request routing.
  *out = StatsOf(snapshot);
  if (TrainerTelemetryFn provider = TrainerProviderOf(endpoint)) {
    out->trainer = provider();
  }
  return true;
}

GatewayStats Gateway::Snapshot() const {
  // Copy the endpoint table under the lock, compute per-endpoint stats off
  // it: a monitoring scrape must not block frame serving on any
  // endpoint while engines sort their latency rings. The shared_ptrs pin
  // each deployment exactly like an in-flight submit does.
  std::vector<EndpointSnapshot> entries;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries.reserve(endpoints_.size());
    for (const auto& [name, ep] : endpoints_) {
      entries.push_back({name, ep.current, ep.swaps, ep.cumulative,
                         ep.first_live});
    }
  }
  GatewayStats snapshot;
  snapshot.endpoints = static_cast<int64_t>(entries.size());
  snapshot.per_endpoint.reserve(entries.size());
  for (const EndpointSnapshot& entry : entries) {
    EndpointStats stats = StatsOf(entry);
    if (TrainerTelemetryFn provider = TrainerProviderOf(entry.name)) {
      stats.trainer = provider();
    }
    snapshot.total_submitted += stats.lifetime_submitted;
    snapshot.total_completed += stats.lifetime_completed;
    snapshot.total_rejected += stats.lifetime_rejected;
    snapshot.total_swaps += stats.swaps;
    snapshot.total_shed_deadline += stats.shed_deadline;
    snapshot.total_shed_capacity += stats.shed_capacity;
    snapshot.total_expired_in_queue += stats.expired_in_queue;
    snapshot.total_degraded += stats.degraded;
    snapshot.total_qps += stats.qps;
    snapshot.per_endpoint.push_back(std::move(stats));
  }
  return snapshot;
}

WireStatsSnapshot Gateway::WireSnapshot() const {
  const GatewayStats full = Snapshot();
  WireStatsSnapshot wire;
  wire.endpoints.reserve(full.per_endpoint.size());
  for (const EndpointStats& stats : full.per_endpoint) {
    WireEndpointStats row;
    row.endpoint = stats.endpoint;
    row.model_name = stats.model_name;
    row.queue_depth = stats.queue_depth;
    row.lifetime_submitted = stats.lifetime_submitted;
    row.lifetime_completed = stats.lifetime_completed;
    row.lifetime_rejected = stats.lifetime_rejected;
    row.shed_deadline = stats.shed_deadline;
    row.shed_capacity = stats.shed_capacity;
    row.expired_in_queue = stats.expired_in_queue;
    row.degraded = stats.degraded;
    row.swaps = stats.swaps;
    row.degraded_now = stats.degraded_now;
    row.qps = stats.qps;
    row.p50_latency_ms = stats.engine.p50_latency_ms;
    row.p95_latency_ms = stats.engine.p95_latency_ms;
    wire.endpoints.push_back(std::move(row));
  }
  return wire;
}

Gateway::~Gateway() {
  // Itinerary workers first: joining them before the endpoint teardown
  // guarantees no plan runs against a half-destroyed gateway.
  std::vector<PlanWorker> workers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    workers = std::move(plan_workers_);
    plan_workers_.clear();
  }
  for (PlanWorker& worker : workers) worker.thread.join();
  std::map<std::string, Endpoint> endpoints;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    endpoints = std::move(endpoints_);
    endpoints_.clear();
  }
  // Deployment destructors drain each endpoint's queue.
  endpoints.clear();
}

}  // namespace tspn::serve
