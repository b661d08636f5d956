#include "stack.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/tspn_ra.h"
#include "serve/codec.h"

namespace wirebench {

namespace tspn_ns = ::tspn;
using tspn_ns::common::SocketAddress;
namespace data = tspn_ns::data;
namespace eval = tspn_ns::eval;
namespace plan = tspn_ns::plan;
namespace serve = tspn_ns::serve;

namespace {

double SecondsSince(Ns start) {
  return static_cast<double>(NowNs() - start) / 1e9;
}

/// The metro: TKY-sim's districts and behaviour over 8x the POIs and
/// users at the same check-ins per user, so the test split holds about
/// eight times as many distinct trajectories.
data::CityProfile MetroProfile() {
  data::CityProfile p = data::CityProfile::FoursquareTky();
  p.name = "Metro(8xTKY-sim)";
  p.num_pois *= 8;
  p.num_users *= 8;
  return p;
}

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec city;
  city.name = "rec_city";
  city.profile = data::CityProfile::FoursquareNyc();
  city.offered_qps = 300.0;
  city.closed_window = 16;
  specs.push_back(city);

  WorkloadSpec metro;
  metro.name = "rec_metro_constrained";
  metro.profile = MetroProfile();
  metro.constrained = true;
  metro.offered_qps = 75.0;
  metro.closed_window = 8;
  metro.cold_warmup = 200;
  metro.train_samples = 192;
  specs.push_back(metro);

  WorkloadSpec mixed;
  mixed.name = "mixed_routed";
  mixed.profile = data::CityProfile::FoursquareNyc();
  mixed.routed = true;
  mixed.itinerary_share = 1.0 / 21.0;  // one itinerary per 20 recommends
  mixed.offered_qps = 160.0;
  mixed.closed_window = 8;
  specs.push_back(mixed);
  return specs;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = MakeWorkloads();
  return specs;
}

/// A seeded constraint mix: a geo fence around the last observed stop, a
/// novelty (exclude-visited) query, or a short category allow-list.
eval::CandidateConstraints MakeConstraints(const data::CityDataset& city,
                                           const data::SampleRef& sample,
                                           SeedStream& rng) {
  eval::CandidateConstraints c;
  switch (rng.Below(3)) {
    case 0: {
      const data::Trajectory& traj = city.trajectory(sample);
      const int64_t last =
          traj.checkins[static_cast<size_t>(sample.prefix_len) - 1].poi_id;
      c.geo_center = city.poi(last).loc;
      c.geo_radius_km = 1.0 + 2.0 * rng.Uniform();
      break;
    }
    case 1:
      c.exclude_visited = true;
      break;
    default: {
      const int64_t num_categories =
          static_cast<int64_t>(city.categories().size());
      while (c.allowed_categories.size() < 4) {
        const int32_t cat = static_cast<int32_t>(rng.Below(num_categories));
        if (std::find(c.allowed_categories.begin(), c.allowed_categories.end(),
                      cat) == c.allowed_categories.end()) {
          c.allowed_categories.push_back(cat);
        }
      }
      std::sort(c.allowed_categories.begin(), c.allowed_categories.end());
      break;
    }
  }
  return c;
}

eval::RecommendRequest MakeRecommend(const WorkloadSpec& spec,
                                     const data::CityDataset& city,
                                     const data::SampleRef& sample,
                                     SeedStream& rng) {
  eval::RecommendRequest request;
  request.sample = sample;
  request.top_n = 10;
  if (spec.constrained) request.constraints = MakeConstraints(city, sample, rng);
  return request;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, const data::CityDataset& city,
                  uint64_t seed) {
  Inputs in;
  SeedStream rng(seed ^ 0x1A2B3C4D5E6F7788ULL);
  const std::vector<data::SampleRef> test = city.Samples(data::Split::kTest);
  for (const data::SampleRef& sample : test) {
    eval::RecommendRequest request = MakeRecommend(spec, city, sample, rng);
    in.frames.push_back(serve::EncodeRecommendRequest(kEndpoint, request));
    in.recommend.push_back(std::move(request));
  }
  in.recommends = static_cast<int32_t>(in.recommend.size());

  if (spec.itinerary_share > 0.0) {
    for (int i = 0; i < 48; ++i) {
      plan::ItineraryRequest request;
      request.start = test[static_cast<size_t>(rng.Below(
          static_cast<int64_t>(test.size())))];
      request.k_stops = 5;
      request.time_budget_hours = 10.0;
      request.travel_speed_kmh = 30.0;
      request.dwell_hours = 0.5;
      request.mode = plan::SearchMode::kBeam;
      in.frames.push_back(serve::EncodeItineraryRequest(kEndpoint, request));
      in.itinerary.push_back(request);
    }
  }
  in.itineraries = static_cast<int32_t>(in.itinerary.size());

  in.warmup_begin = static_cast<int32_t>(in.frames.size());
  if (spec.cold_warmup == 0) {
    for (int32_t i = 0; i < in.recommends + in.itineraries; ++i) {
      in.frames.push_back(in.frames[static_cast<size_t>(i)]);
    }
  } else {
    const std::vector<data::SampleRef> val = city.Samples(data::Split::kVal);
    for (int i = 0; i < spec.cold_warmup && !val.empty(); ++i) {
      const data::SampleRef& sample =
          val[static_cast<size_t>(rng.Below(static_cast<int64_t>(val.size())))];
      in.frames.push_back(serve::EncodeRecommendRequest(
          kEndpoint, MakeRecommend(spec, city, sample, rng)));
    }
  }
  // The quality set is seed-independent, so hit10 is one number per
  // checkpoint: every test sample, or the first kQualitySamples of them.
  in.quality_begin = static_cast<int32_t>(in.frames.size());
  for (size_t i = 0; i < test.size() && i < kQualitySamples; ++i) {
    eval::RecommendRequest request;
    request.sample = test[i];
    request.top_n = 10;
    in.frames.push_back(serve::EncodeRecommendRequest(kEndpoint, request));
    in.quality_targets.push_back(city.Target(test[i]).poi_id);
  }
  for (const auto& frame : in.frames) in.frame_hashes.push_back(HashBytes(frame));
  return in;
}

RequestStream::RequestStream(uint64_t seed, int32_t recommends,
                             int32_t itineraries, double itinerary_share)
    : rng_(seed ^ 0x5EED5EED5EED5EEDULL),
      recommends_(recommends),
      itineraries_(itineraries),
      itinerary_stride_(itineraries > 0 && itinerary_share > 0.0
                            ? static_cast<int>(std::lround(1.0 / itinerary_share))
                            : 0) {
  if (itinerary_stride_ > 0) {
    since_itinerary_ = static_cast<int>(rng_.Below(itinerary_stride_));
  }
  order_.resize(static_cast<size_t>(recommends_));
  for (int32_t i = 0; i < recommends_; ++i) order_[static_cast<size_t>(i)] = i;
  pos_ = order_.size();  // shuffle on first use
}

WireRequest RequestStream::Next() {
  // Itineraries come at a fixed stride (a seeded phase, a seeded pick of
  // the itinerary), so every window of arrivals carries the same share.
  if (itinerary_stride_ > 0 && ++since_itinerary_ >= itinerary_stride_) {
    since_itinerary_ = 0;
    return WireRequest{
        recommends_ + static_cast<int32_t>(rng_.Below(itineraries_)),
        kItineraryConn};
  }
  if (pos_ == order_.size()) {  // next seeded permutation (Fisher-Yates)
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1],
                order_[static_cast<size_t>(rng_.Below(static_cast<int64_t>(i)))]);
    }
    pos_ = 0;
  }
  return WireRequest{order_[pos_++], kRecommendConn};
}

uint64_t RequestKey(const eval::RecommendRequest& r) {
  const eval::CandidateConstraints& c = r.constraints;
  uint64_t h = 0xCBF29CE484222325ULL;
  h = Mix(h, static_cast<uint64_t>(r.sample.user));
  h = Mix(h, static_cast<uint64_t>(r.sample.traj));
  h = Mix(h, static_cast<uint64_t>(r.sample.prefix_len));
  h = Mix(h, static_cast<uint64_t>(r.top_n));
  h = Mix(h, Bits(c.geo_radius_km));
  h = Mix(h, Bits(c.geo_center.lat));
  h = Mix(h, Bits(c.geo_center.lon));
  h = Mix(h, c.exclude_visited ? 1 : 0);
  h = Mix(h, static_cast<uint64_t>(c.open_at));
  for (int32_t cat : c.allowed_categories) h = Mix(h, static_cast<uint64_t>(cat));
  h = Mix(h, 0xA110);
  for (int32_t cat : c.blocked_categories) h = Mix(h, static_cast<uint64_t>(cat));
  return h;
}

// --- Tracing -----------------------------------------------------------------

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(const HandlerRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  handlers_.push_back(record);
}

void Tracer::Record(BatchRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  batches_.push_back(std::move(record));
}

std::vector<HandlerRecord> Tracer::TakeHandlers() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(handlers_, {});
}

std::vector<BatchRecord> Tracer::TakeBatches() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(batches_, {});
}

void TracingHandler::HandleFrameAsync(const std::vector<uint8_t>& frame,
                                      FrameCallback done) {
  if (!Tracer::Global().enabled()) {
    inner_.HandleFrameAsync(frame, std::move(done));
    return;
  }
  HandlerRecord record;
  record.layer = layer_;
  record.frame_hash = HashBytes(frame);
  record.start = NowNs();
  inner_.HandleFrameAsync(
      frame, [record, done = std::move(done)](std::vector<uint8_t> reply) mutable {
        record.end = NowNs();
        Tracer::Global().Record(record);
        done(std::move(reply));
      });
}

namespace {

/// TSPN-RA with RecommendBatch timed: one BatchRecord per engine batch
/// (and per planner expansion wave), carrying the keys it served.
class TimedTspnRa : public tspn_ns::core::TspnRa {
 public:
  using tspn_ns::core::TspnRa::TspnRa;

 protected:
  std::vector<eval::RecommendResponse> RecommendBatchImpl(
      tspn_ns::common::Span<eval::RecommendRequest> requests) const override {
    Tracer& tracer = Tracer::Global();
    if (!tracer.enabled()) {
      return tspn_ns::core::TspnRa::RecommendBatchImpl(requests);
    }
    BatchRecord record;
    record.start = NowNs();
    std::vector<eval::RecommendResponse> out =
        tspn_ns::core::TspnRa::RecommendBatchImpl(requests);
    record.end = NowNs();
    record.keys.reserve(requests.size());
    for (const eval::RecommendRequest& r : requests) {
      record.keys.push_back(RequestKey(r));
    }
    tracer.Record(std::move(record));
    return out;
  }
};

}  // namespace

void RegisterTimedModel() {
  // Same ModelOptions -> TspnRaConfig mapping as the built-in "TSPN-RA"
  // factory, so a checkpoint of either loads into the other.
  eval::ModelRegistry::Global().Register(
      kTimedModel, [](std::shared_ptr<const data::CityDataset> dataset,
                      const eval::ModelOptions& options) {
        tspn_ns::core::TspnRaConfig config;
        config.dm = options.dm;
        config.seed = options.seed;
        config.image_resolution = options.image_resolution;
        config.num_fusion_layers = options.num_fusion_layers;
        config.num_hgat_layers = options.num_hgat_layers;
        config.max_seq_len = options.max_seq_len;
        config.top_k_tiles = options.top_k_tiles > 0
                                 ? options.top_k_tiles
                                 : dataset->profile().top_k_tiles;
        config.grid_cells_per_side = options.grid_cells_per_side;
        config.alpha = options.alpha;
        config.dropout = options.dropout;
        config.spatial_scale = options.spatial_scale;
        config.use_quadtree = options.use_quadtree;
        config.use_two_step = options.use_two_step;
        config.use_graph = options.use_graph;
        config.use_imagery = options.use_imagery;
        config.use_st_encoder = options.use_st_encoder;
        config.use_category = options.use_category;
        return std::unique_ptr<eval::NextPoiModel>(
            std::make_unique<TimedTspnRa>(std::move(dataset), config));
      });
}

// --- The stack ---------------------------------------------------------------

const Knobs& PinnedKnobs() {
  static const Knobs knobs;
  return knobs;
}

eval::ModelOptions PinnedModelOptions() {
  const Knobs& k = PinnedKnobs();
  eval::ModelOptions options;
  options.dm = k.dm;
  options.seed = k.model_seed;
  options.image_resolution = k.image_resolution;
  return options;
}

namespace {

serve::FrameServerOptions ServerOptions(const std::string& unix_path) {
  serve::FrameServerOptions o;
  o.unix_path = unix_path;
  o.io_threads = PinnedKnobs().io_threads;
  o.max_frame_bytes = 1 << 20;
  o.max_connections = 64;
  o.max_inflight_per_connection = PinnedKnobs().conn_inflight;
  return o;
}

int g_stack_serial = 0;

}  // namespace

Stack::Stack(const WorkloadSpec& spec, std::string dir, bool traced,
             uint64_t seed)
    : spec_(spec), dir_(std::move(dir)), traced_(traced), seed_(seed) {
  const std::string tag =
      std::to_string(::getpid()) + "-" + std::to_string(g_stack_serial++);
  checkpoint_ = dir_ + "/" + spec_.name + "-" + tag + ".ckpt";
  shard_path_ = dir_ + "/g" + tag + ".sock";
  front_path_ = dir_ + "/r" + tag + ".sock";
}

Stack::~Stack() { Stop(); }

bool Stack::Start(SetupTimes* times, std::string* error) {
  const Knobs& knobs = PinnedKnobs();
  const Ns t0 = NowNs();

  Ns t = NowNs();
  dataset_ = data::CityDataset::Generate(spec_.profile);
  times->generate_s = SecondsSince(t);

  t = NowNs();
  const eval::ModelOptions options = PinnedModelOptions();
  {
    std::unique_ptr<eval::NextPoiModel> model =
        eval::ModelRegistry::Global().Create("TSPN-RA", dataset_, options);
    eval::TrainOptions train;
    train.epochs = 1;
    train.max_samples_per_epoch = spec_.train_samples;
    train.seed = 1;
    model->Train(train);
    times->train_s = SecondsSince(t);
    t = NowNs();
    model->SaveCheckpoint(checkpoint_);
    times->save_s = SecondsSince(t);
  }

  t = NowNs();
  serve::DeployConfig config;
  config.model_name = traced_ ? kTimedModel : "TSPN-RA";
  config.dataset = dataset_;
  config.checkpoint_path = checkpoint_;
  config.model_options = options.ToKeyValues();
  config.engine_options.num_threads = knobs.engine_workers;
  config.engine_options.max_queue_depth = knobs.queue_depth;
  config.engine_options.max_batch = knobs.max_batch;
  config.engine_options.coalesce_window_us = knobs.coalesce_us;
  config.engine_options.default_deadline_ms = 0;
  // Degraded mode never triggers: the high-water mark sits above a full
  // queue, and even if it did, no class is shed and nothing is clamped.
  config.overload.degrade_high_pct = 101;
  config.overload.degrade_low_pct = 100;
  config.overload.degraded_top_n = 0;
  config.overload.degraded_max_tiles = 0;
  config.overload.shed_priority_at_or_below = -1;
  gateway_ = std::make_unique<serve::Gateway>();
  if (!gateway_->Deploy(kEndpoint, config, error)) return false;
  times->deploy_s = SecondsSince(t);

  t = NowNs();
  if (!Listen(error)) return false;
  times->listen_s = SecondsSince(t);

  t = NowNs();
  inputs_ = MakeInputs(spec_, *dataset_, seed_);
  if (!WarmUp(error)) return false;
  if (spec_.cold_warmup == 0) {
    for (const eval::RecommendRequest& r : inputs_.recommend) {
      warm_keys_.push_back(HistoryKey(r.sample.user, r.sample.traj));
    }
  }
  times->warmup_s = SecondsSince(t);
  times->total_s = SecondsSince(t0);
  return true;
}

bool Stack::Listen(std::string* error) {
  const Knobs& knobs = PinnedKnobs();
  serve::FrameHandler* shard_handler = gateway_.get();
  if (traced_) {
    gateway_tracer_ = std::make_unique<TracingHandler>(*gateway_, Layer::kGateway);
    shard_handler = gateway_tracer_.get();
  }
  shard_server_ = std::make_unique<serve::FrameServer>(*shard_handler,
                                                       ServerOptions(shard_path_));
  if (!shard_server_->Start(error)) return false;
  front_address_ = shard_server_->address();
  if (spec_.routed) {
    serve::cluster::RouterOptions ro;
    ro.shards.push_back(serve::cluster::ShardConfig{
        "shard0", SocketAddress::Unix(shard_path_)});
    ro.virtual_nodes = 64;
    ro.replication = 1;
    ro.worker_threads = knobs.router_workers;
    ro.queue_depth = 256;
    ro.ping_interval_ms = knobs.router_ping_ms;
    ro.call_timeout_ms = 2000;
    ro.pool_size_per_shard = knobs.router_pool;
    ro.breaker.failure_threshold = 3;
    ro.breaker.open_cooldown_ms = 1000;
    ro.rate_limit_qps = 0.0;
    ro.rate_limit_burst = 16.0;
    ro.reconnect_attempts = 2;
    ro.reconnect_backoff_ms = 20;
    router_ = std::make_unique<serve::cluster::ShardRouter>(ro);
    if (!router_->Start(error)) return false;
    serve::FrameHandler* front_handler = router_.get();
    if (traced_) {
      router_tracer_ = std::make_unique<TracingHandler>(*router_, Layer::kRouter);
      front_handler = router_tracer_.get();
    }
    router_server_ = std::make_unique<serve::FrameServer>(
        *front_handler, ServerOptions(front_path_));
    if (!router_server_->Start(error)) return false;
    front_address_ = router_server_->address();
  }
  return true;
}

bool Stack::WarmUp(std::string* error) {
  LoadGenerator gen;
  if (!gen.Connect(front_address_, spec_.connections(), error)) return false;
  int32_t next = inputs_.warmup_begin;
  const int32_t end = inputs_.quality_begin;
  Ns start = 0;
  Ns stop = 0;
  std::vector<Outcome> outcomes = gen.RunClosed(
      inputs_.frames,
      [&](WireRequest* request) {
        if (next >= end) return false;
        const int32_t base = next - inputs_.warmup_begin;
        request->frame = next++;
        request->conn = inputs_.IsItinerary(base) ? kItineraryConn : kRecommendConn;
        return true;
      },
      spec_.closed_window, 60LL * 1000000000LL, 10LL * 1000000000LL, &start,
      &stop);
  for (const Outcome& o : outcomes) {
    serve::FrameType type = serve::FrameType::kError;
    if (!o.answered ||
        serve::PeekFrameType(o.reply, &type) != serve::DecodeStatus::kOk ||
        (type != serve::FrameType::kResponse &&
         type != serve::FrameType::kItineraryResponse)) {
      *error = "warm-up request failed";
      return false;
    }
  }
  return true;
}

void Stack::Stop() {
  if (router_server_) router_server_->Stop();
  router_server_.reset();
  if (router_) router_->Stop();
  router_tracer_.reset();
  router_.reset();
  if (shard_server_) shard_server_->Stop();
  shard_server_.reset();
  gateway_tracer_.reset();
  gateway_.reset();
  if (!checkpoint_.empty()) std::remove(checkpoint_.c_str());
}

}  // namespace wirebench
