#ifndef TSPN_SERVE_INFERENCE_ENGINE_H_
#define TSPN_SERVE_INFERENCE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "eval/model_api.h"
#include "eval/recommend.h"
#include "serve/admission.h"

namespace tspn::serve {

/// Tuning for InferenceEngine, set by the caller in code.
struct EngineOptions {
  int num_threads = 2;             ///< worker threads draining the queue
  int64_t max_queue_depth = 1024;  ///< bounded request-queue capacity
  int64_t max_batch = 32;          ///< max requests coalesced per batch
  /// Max micro-seconds a worker waits for the batch to fill before serving it.
  int64_t coalesce_window_us = 200;

  /// Default completion budget for requests whose AdmissionClass carries no
  /// deadline. 0 = such requests never expire.
  int64_t default_deadline_ms = 0;
};

/// Aggregate serving counters; returned by InferenceEngine::GetStats().
/// Invariant: submitted = completed + shed(evicted) + expired_in_queue +
/// still-queued — every accepted request ends in exactly one bucket, and
/// rejected requests were never accepted at all.
struct EngineStats {
  int64_t submitted = 0;   ///< accepted requests
  int64_t rejected = 0;    ///< submit-time refusals (full, infeasible, shutdown)
  int64_t completed = 0;   ///< requests answered by serving a batch
  int64_t batches = 0;     ///< RecommendBatch invocations
  int64_t max_batch_observed = 0;
  double mean_batch_size = 0.0;
  double p50_latency_ms = 0.0;  ///< submit-to-completion, per request
  double p95_latency_ms = 0.0;

  /// Submit-time refusals because the deadline could not plausibly be met
  /// (subset of `rejected`).
  int64_t shed_deadline = 0;
  /// Capacity sheds: submit-time refusals with the queue full (subset of
  /// `rejected`) plus queued requests evicted by higher-priority arrivals
  /// (subset of `submitted`).
  int64_t shed_capacity = 0;
  /// Accepted requests dropped at dequeue because their deadline had
  /// already passed — they never occupied a batch slot (subset of
  /// `submitted`).
  int64_t expired_in_queue = 0;
};

/// Multi-threaded batching inference front-end over any NextPoiModel: a
/// bounded deadline/priority-aware admission queue, a pool of worker
/// threads, and time/size-based request coalescing. A worker that pops a
/// request keeps collecting until the queue holds `max_batch` requests, the
/// next-to-serve request has waited `coalesce_window_us`, or waiting any
/// longer would run the tightest queued deadline out of serving time
/// (deadline-aware batch formation: the window is capped at that deadline
/// minus the rolling p95 batch service time), then serves its batch with
/// one RecommendBatch() call — with TSPN-RA that turns the queue's
/// concurrent single queries into shared GEMMs against the cached tile/POI
/// matrices.
///
/// Fair-share batch formation: a closing worker claims only its share of
/// the queue, min(max_batch, ceil(queued / free workers)), where free
/// workers are the pool minus those serving a batch, and wakes one more
/// worker when requests remain. Idle workers thus split a backlog and run
/// it in parallel instead of one serving all of it while the others wait;
/// `max_batch` is a cap, reached only when the backlog fills every free
/// worker's batch. A single worker's share is the whole queue, up to
/// `max_batch`.
///
/// Admission control (docs/serving.md "Admission control"): the queue is
/// ordered by (priority desc, deadline asc, arrival) — earliest-deadline-
/// first within each class. At submit, a request whose deadline is below
/// the estimated queue wait (rolling p95 batch service time x batches
/// ahead / workers) is refused immediately rather than queued to die. When
/// the queue is full, an arrival of a strictly higher class evicts the
/// nearest-deadline entry of the lowest queued class; otherwise the arrival
/// is refused. At dequeue, entries whose deadline has already passed are
/// dropped without occupying a batch slot. Every shed path completes the
/// request's continuation with a ShedError carrying the reason — no caller
/// ever hangs.
///
/// Requests are structured eval::RecommendRequests, and a coalesced batch
/// may mix top_n values and constraints freely: the v2 model contract
/// serves every request in a batch at its own top_n with its own
/// constraints (filter-before-top-k), so nothing is served at "batch max
/// then truncated" anymore — the pre-v2 scheme, which per-request
/// constraints made unsound (a truncated shared ranking cannot fill a
/// filtered request's top_n). Compatibility grouping is therefore
/// unnecessary: any share of the queue head is a servable batch.
///
/// The model must be trained (or checkpoint-loaded) before submissions
/// start and must honour the NextPoiModel concurrency contract
/// (model_api.h).
class InferenceEngine {
 public:
  explicit InferenceEngine(const eval::NextPoiModel& model,
                           EngineOptions options = {});
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Completion continuation of an accepted request. Invoked exactly once:
  /// with the response and a null error on success, or with a
  /// default-constructed response and an exception on failure (the model's,
  /// or a ShedError for evicted/expired requests). Runs on the worker thread
  /// that served (or expired) the batch — except for eviction, which runs it
  /// on the submitter thread whose arrival displaced the request.
  using ResponseCallback =
      std::function<void(eval::RecommendResponse response,
                         std::exception_ptr error)>;

  /// Blocking submit: waits while the queue is at capacity with nothing
  /// evictable (backpressure), then enqueues. The returned future holds a
  /// ShedError when the request is refused (infeasible deadline, engine
  /// shut down), evicted, or expires in the queue. A thin wrapper over the
  /// continuation path whose callback fulfils the future.
  std::future<eval::RecommendResponse> Submit(
      eval::RecommendRequest request,
      const AdmissionClass& admission = {});

  /// Non-blocking continuation submit — the wire front-end's hook. No
  /// thread is parked per in-flight request: `callback` runs once the
  /// request completes. Returns false (counting a rejection, callback NOT
  /// invoked) when the request is refused at submit, with *shed_reason
  /// (when non-null) set to kDeadlineUnmeetable, kCapacity or kShutdown, so
  /// an event loop can turn overload into an immediate typed error reply.
  /// The callback must be quick and must not throw: it runs on a serving
  /// worker, so heavy work in it stalls batch formation. Both entry points
  /// move `request` into the queue entry: a caller done with it passes it
  /// with std::move, constraint vectors and all, and copies nothing.
  bool TrySubmitAsync(eval::RecommendRequest request,
                      const AdmissionClass& admission,
                      ResponseCallback callback,
                      ShedReason* shed_reason = nullptr);

  /// Stops accepting requests, serves everything already queued, and joins
  /// the workers. Idempotent; also run by the destructor. Queued requests
  /// whose deadline passes before their batch forms still complete — with
  /// a ShedError(kExpired), not a response.
  void Shutdown();

  EngineStats GetStats() const;

  /// Requests queued but not yet claimed by a worker — the gateway's
  /// per-endpoint queue-depth signal.
  int64_t QueueDepth() const;

  const EngineOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    eval::RecommendRequest request;
    ResponseCallback callback;  ///< the request's only completion channel
    Clock::time_point enqueue_time;
    /// Absolute completion deadline; time_point::max() when none applies.
    Clock::time_point deadline = Clock::time_point::max();
    Priority priority = Priority::kInteractive;
  };

  /// Queue order: priority desc (stored inverted so map order serves the
  /// highest class first), deadline asc (EDF; no-deadline entries sort
  /// after every deadline), then arrival sequence for FIFO stability.
  /// begin() is the next request to serve; the eviction victim is the
  /// FIRST entry of the LAST priority class present (nearest deadline of
  /// the lowest class).
  using QueueKey = std::tuple<uint8_t, Clock::time_point, uint64_t>;
  using Queue = std::map<QueueKey, Request>;

  /// Per-worker reusable scratch: batch entries and the flattened request
  /// view keep their heap capacity across batches, so steady-state serving
  /// stops paying two vector growths per batch on the hot path.
  struct WorkerScratch {
    std::vector<Request> batch;
    std::vector<Request> expired;  ///< dequeued past-deadline entries
    std::vector<eval::RecommendRequest> requests;
  };

  /// Shared tail of both submits: stamps the entry's times and class, runs
  /// admission, and on success publishes it and wakes a worker (releasing
  /// `lock`, which must hold mutex_ on entry — it is released on every
  /// path). On refusal (kShutdown included) the entry is left untouched for
  /// the caller to complete; an evicted victim is completed here, after the
  /// unlock. A deadline too far ahead for Clock to represent counts as no
  /// deadline.
  ShedReason EnqueueEntry(Request& entry, const AdmissionClass& admission,
                          std::unique_lock<std::mutex>& lock);

  /// Expected queue wait for a new arrival: rolling p95 batch service time
  /// x full batches ahead of it / worker threads. Zero until the first
  /// batch completes (cold start admits everything).
  double EstimatedWaitMsLocked() const;

  /// When the forming batch must close: the coalesce window measured from
  /// the next-to-serve request's arrival, capped at the tightest queued
  /// deadline minus a serve margin (rolling p95 batch time, floored at a
  /// small constant) so coalescing never expires a feasible request.
  /// Requires mutex_ held and a non-empty queue.
  Clock::time_point BatchCloseTimeLocked() const;

  /// The eviction victim for an arrival of class `incoming`: the
  /// nearest-deadline entry of the lowest queued class, provided that class
  /// is strictly below `incoming`; queue_.end() when nothing is evictable.
  Queue::iterator EvictableLocked(Priority incoming);

  /// Completes a shed request outside the queue lock: its callback
  /// receives a ShedError carrying `reason`.
  static void CompleteShed(Request&& entry, ShedReason reason);

  void WorkerLoop();
  void ServeBatch(WorkerScratch& scratch);

  const eval::NextPoiModel& model_;
  const EngineOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  Queue queue_;
  uint64_t next_seq_ = 0;
  bool stopping_ = false;
  /// Workers between claiming a batch and finishing it; the fair share
  /// divides the queue among the other num_threads - busy_workers_.
  int busy_workers_ = 0;

  /// Latency percentiles come from a bounded ring of the most recent
  /// samples, so a long-lived engine's stats memory stays constant.
  static constexpr size_t kMaxLatencySamples = 4096;

  /// Rolling window of batch service durations backing the admission
  /// estimate; small so the p95 tracks load shifts quickly.
  static constexpr size_t kMaxBatchSamples = 64;

  /// Submit-path counters are atomics, not stats_mutex_-guarded: the
  /// submits touch no lock beyond the queue mutex they already hold.
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> shed_deadline_{0};
  std::atomic<int64_t> shed_capacity_{0};
  std::atomic<int64_t> expired_in_queue_{0};

  /// Rolling p95 batch service time in ms, written by workers after each
  /// batch, read lock-free by the admission estimate.
  std::atomic<double> batch_p95_ms_{0.0};

  mutable std::mutex stats_mutex_;
  int64_t completed_ = 0;
  int64_t batches_ = 0;
  int64_t batch_size_sum_ = 0;
  int64_t max_batch_observed_ = 0;
  std::vector<double> latencies_ms_;  // ring buffer, see kMaxLatencySamples
  size_t latency_next_ = 0;
  std::vector<double> batch_ms_;      // ring buffer, see kMaxBatchSamples
  size_t batch_ms_next_ = 0;

  std::vector<std::thread> workers_;
};

}  // namespace tspn::serve

#endif  // TSPN_SERVE_INFERENCE_ENGINE_H_
