#include "serve/inference_engine.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/percentile.h"
#include "common/span.h"

namespace tspn::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Map keys sort ascending, so the priority byte is stored inverted:
/// interactive (2) becomes 0 and is served first.
uint8_t InvertPriority(Priority priority) {
  return static_cast<uint8_t>(kMaxPriority - static_cast<uint8_t>(priority));
}

/// Floor for the serve margin used by deadline-aware batch formation: even
/// before the rolling batch p95 has data (cold start reports 0), closing a
/// batch this far ahead of the tightest queued deadline leaves a worker
/// realistic time to run the model.
constexpr double kMinServeMarginMs = 2.0;

}  // namespace

InferenceEngine::InferenceEngine(const eval::NextPoiModel& model,
                                 EngineOptions options)
    : model_(model), options_(options) {
  TSPN_CHECK_GE(options_.num_threads, 1);
  TSPN_CHECK_GE(options_.max_batch, 1);
  TSPN_CHECK_GE(options_.max_queue_depth, 1);
  workers_.reserve(static_cast<size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back(&InferenceEngine::WorkerLoop, this);
  }
}

InferenceEngine::~InferenceEngine() { Shutdown(); }

double InferenceEngine::EstimatedWaitMsLocked() const {
  const double p95_batch_ms = batch_p95_ms_.load(std::memory_order_relaxed);
  if (p95_batch_ms <= 0.0) return 0.0;  // cold start: no evidence to shed on
  const int64_t batches_ahead =
      static_cast<int64_t>(queue_.size()) / options_.max_batch + 1;
  return p95_batch_ms * static_cast<double>(batches_ahead) /
         static_cast<double>(options_.num_threads);
}

InferenceEngine::Clock::time_point InferenceEngine::BatchCloseTimeLocked()
    const {
  auto close = queue_.begin()->second.enqueue_time +
               std::chrono::microseconds(options_.coalesce_window_us);
  // Deadline-aware cap: the batch must close early enough that the
  // tightest-deadline queued request is still served within its budget —
  // otherwise a long coalesce window turns feasible deadlines into
  // kExpired drops at dequeue. Within a priority class the map is
  // deadline-ascending, so each class head carries that class's earliest
  // deadline; lower_bound jumps visit one entry per class (at most
  // kMaxPriority+1 of them) instead of scanning the queue.
  Clock::time_point tightest = Clock::time_point::max();
  auto it = queue_.begin();
  while (it != queue_.end()) {
    tightest = std::min(tightest, it->second.deadline);
    const uint8_t cls = std::get<0>(it->first);
    it = queue_.lower_bound(QueueKey{static_cast<uint8_t>(cls + 1),
                                     Clock::time_point::min(), 0});
  }
  if (tightest == Clock::time_point::max()) return close;  // no deadlines
  const double margin_ms = std::max(
      batch_p95_ms_.load(std::memory_order_relaxed), kMinServeMarginMs);
  const auto margin =
      std::chrono::microseconds(static_cast<int64_t>(margin_ms * 1000.0));
  // A cap already in the past simply means "serve right now".
  return std::min(close, tightest - margin);
}

InferenceEngine::Queue::iterator InferenceEngine::EvictableLocked(
    Priority incoming) {
  if (queue_.empty()) return queue_.end();
  // rbegin() is the lowest queued class (inverted priority sorts it last);
  // the victim is that class's FIRST entry — its nearest deadline — but
  // only an arrival of a strictly higher class may displace it.
  const uint8_t lowest_class = std::get<0>(std::prev(queue_.end())->first);
  if (lowest_class <= InvertPriority(incoming)) return queue_.end();
  return queue_.lower_bound(
      QueueKey{lowest_class, Clock::time_point::min(), 0});
}

void InferenceEngine::CompleteShed(Request&& entry, ShedReason reason) {
  entry.callback(eval::RecommendResponse{},
                 std::make_exception_ptr(ShedError(
                     reason, std::string("request shed (") +
                                 ShedReasonName(reason) + ")")));
}

ShedReason InferenceEngine::EnqueueEntry(Request& entry,
                                         const AdmissionClass& admission,
                                         std::unique_lock<std::mutex>& lock) {
  if (stopping_) {
    lock.unlock();
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return ShedReason::kShutdown;
  }
  entry.enqueue_time = Clock::now();
  entry.priority = admission.priority;
  int64_t deadline_ms = admission.deadline_ms > 0
                            ? admission.deadline_ms
                            : options_.default_deadline_ms;
  // A budget that ends past the latest time point Clock can represent is no
  // deadline at all; converting it to Clock's nanoseconds would overflow.
  if (deadline_ms >= std::chrono::duration_cast<std::chrono::milliseconds>(
                         Clock::time_point::max() - entry.enqueue_time)
                         .count()) {
    deadline_ms = 0;
  }
  entry.deadline = deadline_ms > 0
                       ? entry.enqueue_time +
                             std::chrono::milliseconds(deadline_ms)
                       : Clock::time_point::max();

  // Deadline feasibility: refusing now is strictly better than queueing a
  // request that will expire before a worker reaches it — the caller learns
  // immediately and the queue slot goes to work that can still succeed.
  if (deadline_ms > 0 &&
      static_cast<double>(deadline_ms) < EstimatedWaitMsLocked()) {
    lock.unlock();
    rejected_.fetch_add(1, std::memory_order_relaxed);
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    return ShedReason::kDeadlineUnmeetable;
  }

  std::optional<Request> victim;
  if (static_cast<int64_t>(queue_.size()) >= options_.max_queue_depth) {
    auto it = EvictableLocked(entry.priority);
    if (it == queue_.end()) {
      lock.unlock();
      rejected_.fetch_add(1, std::memory_order_relaxed);
      shed_capacity_.fetch_add(1, std::memory_order_relaxed);
      return ShedReason::kCapacity;
    }
    victim = std::move(it->second);
    queue_.erase(it);
    // The victim WAS submitted; it is a capacity shed, not a rejection.
    shed_capacity_.fetch_add(1, std::memory_order_relaxed);
  }

  // Count the submission (lock-free: the counter is atomic) before the
  // request becomes visible to workers so GetStats() never observes
  // completed > submitted.
  submitted_.fetch_add(1, std::memory_order_relaxed);
  queue_.emplace(QueueKey{InvertPriority(entry.priority), entry.deadline,
                          next_seq_++},
                 std::move(entry));
  lock.unlock();
  not_empty_.notify_one();
  // The victim's continuation runs here on the submitter thread, outside
  // every engine lock (it may itself be slow or re-entrant).
  if (victim.has_value()) {
    CompleteShed(std::move(*victim), ShedReason::kEvicted);
  }
  return ShedReason::kNone;
}

std::future<eval::RecommendResponse> InferenceEngine::Submit(
    eval::RecommendRequest request, const AdmissionClass& admission) {
  // Shared: the callback must be copyable, and it may still be returning
  // on a worker after get() has woken the caller.
  auto promise = std::make_shared<std::promise<eval::RecommendResponse>>();
  std::future<eval::RecommendResponse> future = promise->get_future();
  Request entry;
  entry.request = std::move(request);
  entry.callback = [promise](eval::RecommendResponse response,
                             std::exception_ptr error) {
    if (error != nullptr) {
      promise->set_exception(error);
    } else {
      promise->set_value(std::move(response));
    }
  };
  std::unique_lock<std::mutex> lock(mutex_);
  not_full_.wait(lock, [&] {
    return stopping_ ||
           static_cast<int64_t>(queue_.size()) < options_.max_queue_depth ||
           EvictableLocked(admission.priority) != queue_.end();
  });
  const ShedReason reason = EnqueueEntry(entry, admission, lock);
  if (reason != ShedReason::kNone) CompleteShed(std::move(entry), reason);
  return future;
}

bool InferenceEngine::TrySubmitAsync(eval::RecommendRequest request,
                                     const AdmissionClass& admission,
                                     ResponseCallback callback,
                                     ShedReason* shed_reason) {
  Request entry;
  entry.request = std::move(request);
  entry.callback = std::move(callback);
  std::unique_lock<std::mutex> lock(mutex_);
  const ShedReason reason = EnqueueEntry(entry, admission, lock);
  if (reason == ShedReason::kNone) return true;
  // Contract: the callback is NOT invoked on refusal — the caller turns
  // the reason into its own immediate error reply.
  if (shed_reason != nullptr) *shed_reason = reason;
  return false;
}

void InferenceEngine::WorkerLoop() {
  // Batch scratch lives for the worker's whole life: its vectors' heap
  // capacity is reused across every batch this worker serves.
  WorkerScratch scratch;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    not_empty_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    // Coalesce: the batch closes when it is full, when the next-to-serve
    // request has waited out the coalescing window, or when waiting any
    // longer would push the tightest queued deadline past its serve margin
    // — whichever comes first. A zero window serves whatever is queued
    // right now. The close time is recomputed after every wakeup because
    // an arrival may carry a deadline tighter than anything seen so far.
    while (static_cast<int64_t>(queue_.size()) < options_.max_batch &&
           !stopping_) {
      if (queue_.empty()) break;  // another worker drained it while we slept
      const auto wait_deadline = BatchCloseTimeLocked();
      if (Clock::now() >= wait_deadline) break;
      if (not_empty_.wait_until(lock, wait_deadline) ==
          std::cv_status::timeout) {
        break;
      }
    }
    // Fair share: claim ceil(queued / free workers), capped at max_batch,
    // so idle workers split the queue instead of one serving all of it
    // while the rest wait. This worker counts itself among the free ones.
    const int64_t free_workers = options_.num_threads - busy_workers_;
    const int64_t share = std::min<int64_t>(
        options_.max_batch,
        (static_cast<int64_t>(queue_.size()) + free_workers - 1) /
            free_workers);
    // Form the batch from the queue head (highest priority, earliest
    // deadline first). Entries whose deadline already passed are set aside
    // instead of taking a batch slot — the slot goes to work that can
    // still make its deadline.
    const auto now = Clock::now();
    scratch.batch.clear();
    scratch.expired.clear();
    while (!queue_.empty() &&
           static_cast<int64_t>(scratch.batch.size()) < share) {
      auto it = queue_.begin();
      Request entry = std::move(it->second);
      queue_.erase(it);
      if (entry.deadline <= now) {
        scratch.expired.push_back(std::move(entry));
      } else {
        scratch.batch.push_back(std::move(entry));
      }
    }
    ++busy_workers_;
    const bool leftover = !queue_.empty();
    lock.unlock();
    // The rest of the queue is the next free worker's share.
    if (leftover) not_empty_.notify_one();
    not_full_.notify_all();
    if (!scratch.expired.empty()) {
      expired_in_queue_.fetch_add(
          static_cast<int64_t>(scratch.expired.size()),
          std::memory_order_relaxed);
      for (Request& entry : scratch.expired) {
        CompleteShed(std::move(entry), ShedReason::kExpired);
      }
      scratch.expired.clear();
    }
    ServeBatch(scratch);
    lock.lock();
    --busy_workers_;
  }
}

void InferenceEngine::ServeBatch(WorkerScratch& scratch) {
  std::vector<Request>& batch = scratch.batch;
  if (batch.empty()) return;
  // The v2 batch contract serves every request at its own top_n with its
  // own constraints, so a heterogeneous coalesced batch needs no grouping
  // or per-request truncation.
  std::vector<eval::RecommendRequest>& requests = scratch.requests;
  requests.clear();
  requests.reserve(batch.size());
  for (Request& r : batch) {
    // Moved, not copied: the entry's request (constraint vectors included)
    // is not read again after the batch is served.
    requests.push_back(std::move(r.request));
  }
  // A throwing model must not escape the worker thread (std::terminate) or
  // strand the batch's callbacks; the failure is confined to these requests.
  const auto serve_start = Clock::now();
  std::vector<eval::RecommendResponse> results;
  std::exception_ptr error;
  try {
    results = model_.RecommendBatch(common::Span<eval::RecommendRequest>(requests));
  } catch (...) {
    error = std::current_exception();
  }
  // A short (or long) result vector cannot be matched to the batch; fail
  // the batch like a throwing model rather than read past its end.
  if (error == nullptr && results.size() != batch.size()) {
    error = std::make_exception_ptr(std::runtime_error(
        "model returned " + std::to_string(results.size()) +
        " responses for a batch of " + std::to_string(batch.size())));
  }
  const auto done = Clock::now();
  // Record the batch in the stats BEFORE running any callback: a client
  // that calls GetStats() right after its completion must see its own
  // request counted.
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++batches_;
    completed_ += static_cast<int64_t>(batch.size());
    batch_size_sum_ += static_cast<int64_t>(batch.size());
    max_batch_observed_ =
        std::max(max_batch_observed_, static_cast<int64_t>(batch.size()));
    for (const Request& r : batch) {
      const double ms =
          std::chrono::duration<double, std::milli>(done - r.enqueue_time)
              .count();
      // Bounded ring of recent latencies: percentiles reflect recent traffic
      // and the history cannot grow with total requests served.
      if (latencies_ms_.size() < kMaxLatencySamples) {
        latencies_ms_.push_back(ms);
      } else {
        latencies_ms_[latency_next_] = ms;
      }
      latency_next_ = (latency_next_ + 1) % kMaxLatencySamples;
    }
    // Batch service time feeds the admission estimate: a bounded ring keeps
    // the p95 tracking the current load, and the cached atomic lets the
    // submit path read it without touching this mutex.
    const double batch_ms =
        std::chrono::duration<double, std::milli>(done - serve_start).count();
    if (batch_ms_.size() < kMaxBatchSamples) {
      batch_ms_.push_back(batch_ms);
    } else {
      batch_ms_[batch_ms_next_] = batch_ms;
    }
    batch_ms_next_ = (batch_ms_next_ + 1) % kMaxBatchSamples;
    batch_p95_ms_.store(common::PercentileOf(batch_ms_, 0.95),
                        std::memory_order_relaxed);
  }
  // The completions run right here on the serving worker: no other thread
  // sits parked waiting for this moment.
  for (size_t i = 0; i < batch.size(); ++i) {
    if (error != nullptr) {
      batch[i].callback(eval::RecommendResponse{}, error);
    } else {
      batch[i].callback(std::move(results[i]), nullptr);
    }
  }
  // Drop the served entries now, not at the next batch fill: a callback may
  // own resources (a FrameServer connection and its reply slot, a Submit
  // promise), and parking it in the scratch would hold them until this
  // worker happens to serve again. clear() keeps the vector's capacity, so
  // the scratch reuse this struct exists for is unaffected.
  batch.clear();
}

void InferenceEngine::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

int64_t InferenceEngine::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(queue_.size());
}

EngineStats InferenceEngine::GetStats() const {
  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  EngineStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.shed_capacity = shed_capacity_.load(std::memory_order_relaxed);
  s.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  s.completed = completed_;
  s.batches = batches_;
  s.max_batch_observed = max_batch_observed_;
  s.mean_batch_size =
      batches_ > 0 ? static_cast<double>(batch_size_sum_) /
                         static_cast<double>(batches_)
                   : 0.0;
  s.p50_latency_ms = common::PercentileOf(latencies_ms_, 0.50);
  s.p95_latency_ms = common::PercentileOf(latencies_ms_, 0.95);
  return s;
}

}  // namespace tspn::serve
