// Tests of the batching inference engine: per-request answers must match
// direct model calls, heterogeneous batches (mixed top_n and constraints)
// must be served per-request, backpressure/shutdown must behave, and the
// whole thing must hold up under concurrent submitters.

#include "serve/inference_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/tspn_ra.h"
#include "data/dataset.h"
#include "eval/constraints.h"
#include "eval/model_registry.h"

namespace tspn::serve {
namespace {

/// An unconstrained top-`top_n` request.
eval::RecommendRequest Query(const data::SampleRef& sample, int64_t top_n) {
  eval::RecommendRequest request;
  request.sample = sample;
  request.top_n = top_n;
  return request;
}

/// Ranked POI ids of an unconstrained top-`top_n` request.
std::vector<int64_t> TopIds(const eval::NextPoiModel& model,
                            const data::SampleRef& sample, int64_t top_n) {
  return model.Recommend(Query(sample, top_n)).PoiIds();
}

core::TspnRaConfig TinyConfig() {
  core::TspnRaConfig config;
  config.dm = 16;
  config.image_resolution = 16;
  config.num_fusion_layers = 1;
  config.num_hgat_layers = 1;
  config.max_seq_len = 8;
  config.top_k_tiles = 5;
  config.seed = 3;
  return config;
}

class InferenceEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = data::CityDataset::Generate(data::CityProfile::TestTiny());
    model_ = std::make_unique<core::TspnRa>(dataset_, TinyConfig());
    eval::TrainOptions options;
    options.epochs = 1;
    options.max_samples_per_epoch = 24;
    model_->Train(options);
  }
  static void TearDownTestSuite() { model_.reset(); }

  static std::shared_ptr<data::CityDataset> dataset_;
  static std::unique_ptr<core::TspnRa> model_;
};

std::shared_ptr<data::CityDataset> InferenceEngineTest::dataset_;
std::unique_ptr<core::TspnRa> InferenceEngineTest::model_;

EngineOptions TestOptions(int threads) {
  EngineOptions options;
  options.num_threads = threads;
  options.max_queue_depth = 64;
  options.max_batch = 8;
  options.coalesce_window_us = 500;
  return options;
}

TEST_F(InferenceEngineTest, TrySubmitAsyncRunsContinuationsWithoutWaiters) {
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  InferenceEngine engine(*model_, TestOptions(2));
  const size_t count = std::min<size_t>(16, samples.size());

  std::mutex mutex;
  std::condition_variable all_done;
  size_t completed = 0;
  std::vector<eval::RecommendResponse> responses(count);
  std::vector<std::exception_ptr> errors(count);
  for (size_t i = 0; i < count; ++i) {
    const bool accepted = engine.TrySubmitAsync(
        Query(samples[i], 10), AdmissionClass{},
        [&, i](eval::RecommendResponse response, std::exception_ptr error) {
          std::lock_guard<std::mutex> lock(mutex);
          responses[i] = std::move(response);
          errors[i] = error;
          if (++completed == count) all_done.notify_one();
        });
    ASSERT_TRUE(accepted) << "request " << i;
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(all_done.wait_for(lock, std::chrono::seconds(30),
                                  [&] { return completed == count; }));
  }
  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(errors[i], nullptr) << "request " << i;
    EXPECT_EQ(responses[i].PoiIds(), TopIds(*model_, samples[i], 10))
        << "request " << i;
  }
  EngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(count));
  EXPECT_EQ(stats.completed, static_cast<int64_t>(count));
}

TEST_F(InferenceEngineTest, TrySubmitAsyncRejectsAfterShutdownWithoutCallback) {
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  InferenceEngine engine(*model_, TestOptions(1));
  engine.Shutdown();
  std::atomic<bool> ran{false};
  ShedReason reason = ShedReason::kNone;
  EXPECT_FALSE(engine.TrySubmitAsync(
      Query(samples[0], 5), AdmissionClass{},
      [&](eval::RecommendResponse, std::exception_ptr) { ran.store(true); },
      &reason));
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(reason, ShedReason::kShutdown);
  EXPECT_GE(engine.GetStats().rejected, 1);
}

TEST_F(InferenceEngineTest, ServedAnswersMatchDirectRecommend) {
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  InferenceEngine engine(*model_, TestOptions(2));
  std::vector<std::future<eval::RecommendResponse>> futures;
  const size_t count = std::min<size_t>(24, samples.size());
  futures.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    futures.push_back(engine.Submit(Query(samples[i], 10)));
  }
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(futures[i].get().PoiIds(), TopIds(*model_, samples[i], 10))
        << "request " << i;
  }
  EngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(count));
  EXPECT_EQ(stats.completed, static_cast<int64_t>(count));
  EXPECT_GE(stats.batches, 1);
  EXPECT_LE(stats.max_batch_observed, 8);
}

TEST_F(InferenceEngineTest, MixedTopNRequestsAreServedPerRequest) {
  auto samples = dataset_->Samples(data::Split::kTest);
  InferenceEngine engine(*model_, TestOptions(1));
  auto short_future = engine.Submit(Query(samples[0], 3));
  auto long_future = engine.Submit(Query(samples[0], 15));
  std::vector<int64_t> short_ranked = short_future.get().PoiIds();
  std::vector<int64_t> long_ranked = long_future.get().PoiIds();
  EXPECT_EQ(short_ranked, TopIds(*model_, samples[0], 3));
  EXPECT_EQ(long_ranked, TopIds(*model_, samples[0], 15));
  // Deterministic tie-breaking makes the short list a prefix of the long.
  ASSERT_LE(short_ranked.size(), long_ranked.size());
  for (size_t i = 0; i < short_ranked.size(); ++i) {
    EXPECT_EQ(short_ranked[i], long_ranked[i]);
  }
}

TEST_F(InferenceEngineTest, HeterogeneousBatchServedPerRequest) {
  // Requests mixing top_n AND constraints coalesce into one batch; each must
  // be answered exactly as a direct model call — the pre-v2 "serve at batch
  // max top_n then truncate" scheme cannot express this. One worker and a
  // generous coalesce window force genuine coalescing.
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_GE(samples.size(), 3u);
  EngineOptions options = TestOptions(1);
  options.coalesce_window_us = 50000;  // 50 ms: all submissions land together
  InferenceEngine engine(*model_, options);

  eval::RecommendRequest plain;
  plain.sample = samples[0];
  plain.top_n = 4;

  eval::RecommendRequest fenced;
  fenced.sample = samples[1];
  fenced.top_n = 9;
  fenced.constraints.geo_center = dataset_->profile().bbox.Center();
  fenced.constraints.geo_radius_km = 3.0;

  eval::RecommendRequest novel;
  novel.sample = samples[2];
  novel.top_n = 6;
  novel.constraints.exclude_visited = true;

  auto f_plain = engine.Submit(plain);
  auto f_fenced = engine.Submit(fenced);
  auto f_novel = engine.Submit(novel);

  const eval::RecommendResponse r_plain = f_plain.get();
  const eval::RecommendResponse r_fenced = f_fenced.get();
  const eval::RecommendResponse r_novel = f_novel.get();

  auto expect_matches_direct = [&](const eval::RecommendResponse& served,
                                   const eval::RecommendRequest& request) {
    const eval::RecommendResponse direct = model_->Recommend(request);
    ASSERT_EQ(served.items.size(), direct.items.size());
    EXPECT_LE(static_cast<int64_t>(served.items.size()), request.top_n);
    for (size_t i = 0; i < served.items.size(); ++i) {
      EXPECT_EQ(served.items[i].poi_id, direct.items[i].poi_id) << "rank " << i;
      EXPECT_EQ(served.items[i].score, direct.items[i].score) << "rank " << i;
    }
  };
  expect_matches_direct(r_plain, plain);
  expect_matches_direct(r_fenced, fenced);
  expect_matches_direct(r_novel, novel);

  // Constraint predicates hold on every served item.
  for (const eval::ScoredPoi& item : r_fenced.items) {
    EXPECT_LE(geo::HaversineKm(dataset_->poi(item.poi_id).loc,
                               fenced.constraints.geo_center),
              fenced.constraints.geo_radius_km);
  }
  const data::Trajectory& traj = dataset_->trajectory(novel.sample);
  for (const eval::ScoredPoi& item : r_novel.items) {
    for (int32_t i = 0; i < novel.sample.prefix_len; ++i) {
      EXPECT_NE(item.poi_id, traj.checkins[static_cast<size_t>(i)].poi_id);
    }
  }

  // The three requests really were coalesced (one worker, long window).
  EngineStats stats = engine.GetStats();
  EXPECT_GE(stats.max_batch_observed, 2);
}

TEST_F(InferenceEngineTest, ConcurrentSubmittersStressParity) {
  // Several client threads hammer the engine at once; every reply must still
  // equal a direct per-query Recommend. This also exercises the thread
  // safety of the model's lazily built inference caches and of its history
  // cache, where workers racing on one key build its graph and encode its
  // K/V side by side.
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  // A fresh model so EnsureInferenceCaches races from a cold start.
  core::TspnRa fresh(dataset_, TinyConfig());
  InferenceEngine engine(fresh, TestOptions(4));
  constexpr int kClients = 4;
  constexpr int kPerClient = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const data::SampleRef& sample =
            samples[static_cast<size_t>(c * kPerClient + i) % samples.size()];
        std::vector<int64_t> served =
            engine.Submit(Query(sample, 10)).get().PoiIds();
        if (served != TopIds(fresh, sample, 10)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.completed, kClients * kPerClient);
}

TEST_F(InferenceEngineTest, ShutdownServesQueuedThenRejects) {
  auto samples = dataset_->Samples(data::Split::kTest);
  auto engine = std::make_unique<InferenceEngine>(*model_, TestOptions(1));
  auto pending = engine->Submit(Query(samples[0], 5));
  engine->Shutdown();
  // Queued work was served before the workers exited.
  EXPECT_EQ(pending.get().PoiIds(), TopIds(*model_, samples[0], 5));
  // New submissions are refused, blocking or not.
  auto refused = engine->Submit(Query(samples[0], 5));
  EXPECT_THROW(refused.get(), std::runtime_error);
  EXPECT_FALSE(engine->TrySubmitAsync(
      Query(samples[0], 5), AdmissionClass{},
      [](eval::RecommendResponse, std::exception_ptr) {}));
  EXPECT_GE(engine->GetStats().rejected, 2);
}

TEST_F(InferenceEngineTest, DeadlineBeyondTheClockIsNoDeadline) {
  // The wire codec accepts any non-negative deadline_ms. A budget too far
  // ahead for the clock to represent must serve as if it had none, not
  // overflow into the past and expire in the queue.
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  InferenceEngine engine(*model_, TestOptions(1));
  for (const int64_t deadline_ms :
       {std::numeric_limits<int64_t>::max(), int64_t{1} << 62}) {
    AdmissionClass admission;
    admission.deadline_ms = deadline_ms;
    auto future = engine.Submit(Query(samples[0], 5), admission);
    EXPECT_EQ(future.get().PoiIds(), TopIds(*model_, samples[0], 5))
        << "deadline_ms " << deadline_ms;
  }
  const EngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.expired_in_queue, 0);
}

TEST_F(InferenceEngineTest, DefaultSerialFallbackServesBaselines) {
  // Models that don't override the batched path are served through the
  // default per-request loop; answers must match direct calls, constraints
  // included.
  eval::ModelOptions model_options;
  model_options.dm = 16;
  model_options.seed = 7;
  auto model = eval::ModelRegistry::Global().Create("MC", dataset_,
                                                    model_options);
  ASSERT_NE(model, nullptr);
  eval::TrainOptions options;
  options.epochs = 1;
  model->Train(options);
  auto samples = dataset_->Samples(data::Split::kTest);
  InferenceEngine engine(*model, TestOptions(2));
  std::vector<std::future<eval::RecommendResponse>> futures;
  std::vector<eval::RecommendRequest> requests;
  const size_t count = std::min<size_t>(8, samples.size());
  for (size_t i = 0; i < count; ++i) {
    eval::RecommendRequest request;
    request.sample = samples[i];
    request.top_n = 10;
    if (i % 2 == 1) request.constraints.exclude_visited = true;
    requests.push_back(request);
  }
  futures.reserve(count);
  for (const eval::RecommendRequest& request : requests) {
    futures.push_back(engine.Submit(request));
  }
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(futures[i].get().PoiIds(),
              model->Recommend(requests[i]).PoiIds())
        << "request " << i;
  }
}

/// A model whose inference always throws: the engine must confine the
/// failure to the affected requests instead of killing the worker.
class ThrowingModel : public eval::NextPoiModel {
 public:
  std::string name() const override { return "Throwing"; }
  void Train(const eval::TrainOptions&) override {}

 protected:
  eval::RecommendResponse RecommendImpl(
      const eval::RecommendRequest&) const override {
    throw std::runtime_error("model failure");
  }
};

TEST(InferenceEngineErrorTest, ThrowingModelFailsFuturesNotTheEngine) {
  ThrowingModel model;
  EngineOptions options = TestOptions(2);
  InferenceEngine engine(model, options);
  data::SampleRef sample;
  sample.prefix_len = 1;
  auto first = engine.Submit(Query(sample, 5));
  EXPECT_THROW(first.get(), std::runtime_error);
  // Workers survived; later requests still get (failed) answers and stats
  // keep accounting.
  auto second = engine.Submit(Query(sample, 5));
  EXPECT_THROW(second.get(), std::runtime_error);
  EngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.completed, 2);
  engine.Shutdown();
}

// --- Admission control: deadlines, priorities, eviction, expiry --------------

/// A model whose inference blocks until Release(): tests park the single
/// worker inside a batch to stage the queue into a known state.
class GatedModel : public eval::NextPoiModel {
 public:
  std::string name() const override { return "Gated"; }
  void Train(const eval::TrainOptions&) override {}

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 protected:
  eval::RecommendResponse RecommendImpl(
      const eval::RecommendRequest&) const override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return open_; });
    return {};
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool open_ = false;
};

/// A model with a known minimum service time, to seed the rolling batch-p95
/// behind the admission estimate.
class SlowModel : public eval::NextPoiModel {
 public:
  std::string name() const override { return "Slow"; }
  void Train(const eval::TrainOptions&) override {}

 protected:
  eval::RecommendResponse RecommendImpl(
      const eval::RecommendRequest&) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    return {};
  }
};

EngineOptions AdmissionOptions(int64_t queue_depth, int64_t max_batch) {
  EngineOptions options;
  options.num_threads = 1;
  options.max_queue_depth = queue_depth;
  options.max_batch = max_batch;
  options.coalesce_window_us = 0;
  return options;
}

eval::RecommendRequest TrivialRequest() {
  eval::RecommendRequest request;
  request.sample.prefix_len = 1;
  request.top_n = 3;
  return request;
}

/// Parks the engine's only worker inside the gated model: submits one
/// request and waits until the worker has claimed it, so everything
/// submitted afterwards stays queued until Release().
std::future<eval::RecommendResponse> ParkWorker(InferenceEngine& engine) {
  auto blocker = engine.Submit(TrivialRequest());
  while (engine.QueueDepth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return blocker;
}

TEST(InferenceEngineAdmissionTest, ExpiredEntriesNeverOccupyBatchSlots) {
  GatedModel model;
  InferenceEngine engine(model, AdmissionOptions(16, 8));
  auto blocker = ParkWorker(engine);

  AdmissionClass doomed;
  doomed.deadline_ms = 30;
  auto f_doomed = engine.Submit(TrivialRequest(), doomed);
  auto f_ok = engine.Submit(TrivialRequest(), AdmissionClass{});
  // Let the doomed request's deadline pass while the worker is parked, then
  // open the gate: the next batch must drop it at dequeue and serve only
  // the deadline-less request.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  model.Release();

  try {
    f_doomed.get();
    FAIL() << "expired request was served";
  } catch (const ShedError& e) {
    EXPECT_EQ(e.reason(), ShedReason::kExpired);
  }
  f_ok.get();
  blocker.get();
  const EngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_EQ(stats.expired_in_queue, 1);
  // Only the blocker and the deadline-less request reached a batch slot.
  EXPECT_EQ(stats.completed, 2);
}

TEST(InferenceEngineAdmissionTest, HigherClassEvictsNearestDeadlineOfLowest) {
  GatedModel model;
  InferenceEngine engine(model, AdmissionOptions(2, 8));
  auto blocker = ParkWorker(engine);

  AdmissionClass background;
  background.priority = Priority::kBackground;
  auto f_far = engine.Submit(TrivialRequest(), background);  // no deadline
  AdmissionClass background_near = background;
  background_near.deadline_ms = 60000;
  auto f_near = engine.Submit(TrivialRequest(), background_near);

  // Queue full. An interactive arrival must evict the background entry with
  // the NEAREST deadline (deadlines sort before no-deadline), not the other.
  AdmissionClass interactive;
  auto f_hi = engine.Submit(TrivialRequest(), interactive);
  try {
    f_near.get();
    FAIL() << "victim was served";
  } catch (const ShedError& e) {
    EXPECT_EQ(e.reason(), ShedReason::kEvicted);
  }

  // Queue full again; a same-or-lower-class arrival finds nothing evictable
  // and is refused without invoking its callback.
  std::atomic<bool> ran{false};
  ShedReason reason = ShedReason::kNone;
  EXPECT_FALSE(engine.TrySubmitAsync(
      TrivialRequest(), background,
      [&](eval::RecommendResponse, std::exception_ptr) { ran.store(true); },
      &reason));
  EXPECT_EQ(reason, ShedReason::kCapacity);
  EXPECT_FALSE(ran.load());

  model.Release();
  f_far.get();
  f_hi.get();
  blocker.get();
  const EngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.submitted, 4);           // blocker, far, near, hi
  EXPECT_EQ(stats.shed_capacity, 2);       // the eviction + the refusal
  EXPECT_EQ(stats.rejected, 1);            // only the refusal
  EXPECT_EQ(stats.completed, 3);
}

TEST(InferenceEngineAdmissionTest, ServesPriorityThenEarliestDeadlineFirst) {
  GatedModel model;
  InferenceEngine engine(model, AdmissionOptions(16, 1));  // one per batch
  auto blocker = ParkWorker(engine);

  std::mutex mutex;
  std::vector<std::string> order;
  auto tag = [&](const char* name) {
    return [&, name](eval::RecommendResponse, std::exception_ptr error) {
      ASSERT_EQ(error, nullptr);
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(name);
    };
  };
  AdmissionClass background;
  background.priority = Priority::kBackground;
  AdmissionClass bulk;
  bulk.priority = Priority::kBulk;
  AdmissionClass late;
  late.deadline_ms = 120000;  // interactive, later deadline
  AdmissionClass soon;
  soon.deadline_ms = 60000;  // interactive, earliest deadline

  ASSERT_TRUE(engine.TrySubmitAsync(TrivialRequest(), background,
                                    tag("background"), nullptr));
  ASSERT_TRUE(engine.TrySubmitAsync(TrivialRequest(), bulk, tag("bulk"),
                                    nullptr));
  ASSERT_TRUE(engine.TrySubmitAsync(TrivialRequest(), late,
                                    tag("interactive-late"), nullptr));
  ASSERT_TRUE(engine.TrySubmitAsync(TrivialRequest(), soon,
                                    tag("interactive-soon"), nullptr));
  model.Release();
  blocker.get();
  engine.Shutdown();  // drains: all four callbacks have run
  const std::vector<std::string> expected = {
      "interactive-soon", "interactive-late", "bulk", "background"};
  EXPECT_EQ(order, expected);
}

TEST(InferenceEngineAdmissionTest, TightDeadlineShortensCoalesceWindow) {
  // Deadline-aware batch formation: with a coalesce window far longer than
  // the request's deadline, the worker must close the batch early (deadline
  // minus serve margin) and serve the request instead of letting it expire
  // while the window runs out.
  SlowModel model;  // 40 ms per batch: a real, measurable service time
  EngineOptions options = AdmissionOptions(16, 8);
  options.coalesce_window_us = 2000000;  // 2 s: never reached in this test
  InferenceEngine engine(model, options);

  // Warm-up: one deadline-less request waits out the full window and seeds
  // the rolling batch p95 with a real service time. On a cold engine the p95
  // is 0, the batch-close margin falls to kMinServeMarginMs, and any late
  // worker wake-up on a loaded box expires the tight request below.
  engine.Submit(TrivialRequest(), AdmissionClass{}).get();

  AdmissionClass tight;
  tight.deadline_ms = 250;
  const auto start = std::chrono::steady_clock::now();
  auto future = engine.Submit(TrivialRequest(), tight);
  EXPECT_NO_THROW(future.get());  // served, not kExpired
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  // Served within the deadline budget, nowhere near the 2 s window.
  EXPECT_LT(elapsed_ms, 1000.0);

  // A deadline-less request still honours the full window: submit two
  // together and check they coalesced into one batch (the first's arrival
  // opens the window; the second lands inside it).
  auto a = engine.Submit(TrivialRequest(), AdmissionClass{});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto b = engine.Submit(TrivialRequest(), AdmissionClass{});
  AdmissionClass closer;
  closer.deadline_ms = 300;  // third arrival's deadline closes the batch
  auto c = engine.Submit(TrivialRequest(), closer);
  a.get();
  b.get();
  c.get();
  const EngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.completed, 5);
  EXPECT_EQ(stats.expired_in_queue, 0);
  EXPECT_GE(stats.max_batch_observed, 3);  // the trio really coalesced
}

TEST(InferenceEngineAdmissionTest, InfeasibleDeadlineRefusedAtSubmit) {
  SlowModel model;
  InferenceEngine engine(model, AdmissionOptions(16, 1));
  // Seed the rolling batch-service p95 (>= 40 ms, the model's floor).
  engine.Submit(TrivialRequest()).get();

  AdmissionClass tight;
  tight.deadline_ms = 1;  // far below the estimated wait
  auto refused = engine.Submit(TrivialRequest(), tight);
  try {
    refused.get();
    FAIL() << "infeasible deadline was admitted";
  } catch (const ShedError& e) {
    EXPECT_EQ(e.reason(), ShedReason::kDeadlineUnmeetable);
  }

  // A generous deadline sails through the same estimate.
  AdmissionClass loose;
  loose.deadline_ms = 60000;
  engine.Submit(TrivialRequest(), loose).get();

  const EngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.shed_deadline, 1);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.completed, 2);
}

// --- Batch result contract and fair-share batch formation -------------------

/// A model that answers every batch with one response too few: the engine
/// must fail that batch's requests instead of reading past the results.
class ShortBatchModel : public eval::NextPoiModel {
 public:
  std::string name() const override { return "ShortBatch"; }
  void Train(const eval::TrainOptions&) override {}

 protected:
  eval::RecommendResponse RecommendImpl(
      const eval::RecommendRequest&) const override {
    return {};
  }
  std::vector<eval::RecommendResponse> RecommendBatchImpl(
      common::Span<eval::RecommendRequest> requests) const override {
    return std::vector<eval::RecommendResponse>(requests.size() - 1);
  }
};

TEST(InferenceEngineErrorTest, ShortBatchResultFailsTheBatchNotTheEngine) {
  ShortBatchModel model;
  EngineOptions options = AdmissionOptions(16, 8);
  options.coalesce_window_us = 200000;  // both submissions share one batch
  InferenceEngine engine(model, options);
  auto first = engine.Submit(TrivialRequest());
  auto second = engine.Submit(TrivialRequest());
  EXPECT_THROW(first.get(), std::runtime_error);
  EXPECT_THROW(second.get(), std::runtime_error);
  // The worker survived: a later batch is served (and failed) as well.
  EXPECT_THROW(engine.Submit(TrivialRequest()).get(), std::runtime_error);
  const EngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.completed, 3);
}

TEST(InferenceEngineErrorTest, ModelFailuresReachContinuationsOnce) {
  // Wire traffic completes through continuations, not futures: a throwing
  // model and a short batch result must each run the callback exactly once
  // with the error, and the engine still counts the request as completed.
  ThrowingModel throwing;
  ShortBatchModel short_batch;
  const std::vector<const eval::NextPoiModel*> models = {&throwing,
                                                         &short_batch};
  for (const eval::NextPoiModel* model : models) {
    std::mutex mutex;
    std::condition_variable called;
    int calls = 0;
    std::exception_ptr error;
    size_t items = 1;
    InferenceEngine engine(*model, AdmissionOptions(16, 8));
    ASSERT_TRUE(engine.TrySubmitAsync(
        TrivialRequest(), AdmissionClass{},
        [&](eval::RecommendResponse response, std::exception_ptr e) {
          std::lock_guard<std::mutex> lock(mutex);
          ++calls;
          error = e;
          items = response.items.size();
          called.notify_one();
        }));
    {
      std::unique_lock<std::mutex> lock(mutex);
      ASSERT_TRUE(called.wait_for(lock, std::chrono::seconds(30),
                                  [&] { return calls > 0; }));
    }
    engine.Shutdown();  // drained: no second call can still be pending
    EXPECT_EQ(calls, 1) << model->name();
    ASSERT_NE(error, nullptr) << model->name();
    EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
    EXPECT_EQ(items, 0u) << model->name();
    EXPECT_EQ(engine.GetStats().completed, 1) << model->name();
  }
}

/// Records every batch it serves (requests tagged by top_n) and holds each
/// one until a second batch is in flight, or a bounded timeout passes, so a
/// test can see whether two workers served at once.
class OverlapModel : public eval::NextPoiModel {
 public:
  std::string name() const override { return "Overlap"; }
  void Train(const eval::TrainOptions&) override {}

  std::vector<std::vector<int64_t>> batches() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return batches_;
  }
  int max_in_flight() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_in_flight_;
  }

 protected:
  eval::RecommendResponse RecommendImpl(
      const eval::RecommendRequest&) const override {
    return {};
  }
  std::vector<eval::RecommendResponse> RecommendBatchImpl(
      common::Span<eval::RecommendRequest> requests) const override {
    std::vector<int64_t> tags;
    for (const eval::RecommendRequest& request : requests) {
      tags.push_back(request.top_n);
    }
    std::unique_lock<std::mutex> lock(mutex_);
    batches_.push_back(tags);
    max_in_flight_ = std::max(max_in_flight_, ++in_flight_);
    cv_.notify_all();
    cv_.wait_for(lock, std::chrono::seconds(5),
                 [&] { return max_in_flight_ >= 2; });
    --in_flight_;
    return std::vector<eval::RecommendResponse>(requests.size());
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable std::vector<std::vector<int64_t>> batches_;
  mutable int in_flight_ = 0;
  mutable int max_in_flight_ = 0;
};

TEST(InferenceEngineFairShareTest, IdleWorkersSplitTheQueuedBatch) {
  OverlapModel model;
  EngineOptions options;
  options.num_threads = 2;
  options.max_queue_depth = 64;
  options.max_batch = 32;
  options.coalesce_window_us = 300000;  // all 8 are queued before it closes
  InferenceEngine engine(model, options);

  // Four bulk requests (tags 1-4), then four interactive ones (tags 5-8)
  // whose deadlines run backwards, so the queue head is 8, 7, 6, 5.
  AdmissionClass bulk;
  bulk.priority = Priority::kBulk;
  std::vector<std::future<eval::RecommendResponse>> futures;
  for (int64_t tag = 1; tag <= 8; ++tag) {
    eval::RecommendRequest request = TrivialRequest();
    request.top_n = tag;
    AdmissionClass admission = bulk;
    if (tag > 4) {
      admission = AdmissionClass{};
      admission.deadline_ms = 60000 - tag * 1000;
    }
    futures.push_back(engine.Submit(request, admission));
  }
  for (auto& future : futures) future.get();

  // Two free workers, eight queued: each claims ceil(8 / 2) = 4, and the
  // two batches run at the same time.
  EXPECT_EQ(model.max_in_flight(), 2);
  std::vector<std::vector<int64_t>> batches = model.batches();
  ASSERT_EQ(batches.size(), 2u);
  // Claims come from the queue head: one batch is the four head requests
  // in queue order (the first claim), the other is what was left.
  std::sort(batches.begin(), batches.end(),
            [](const auto& a, const auto& b) { return a.front() > b.front(); });
  EXPECT_EQ(batches[0], (std::vector<int64_t>{8, 7, 6, 5}));
  EXPECT_EQ(batches[1], (std::vector<int64_t>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace tspn::serve
