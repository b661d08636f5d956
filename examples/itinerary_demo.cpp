// Itinerary-mode demo and tier-1 smoke: constrained k-stop trip planning
// served end to end over the TSWP wire protocol.
//
//   1. A tiny synthetic city is generated and a TSPN-RA checkpoint is
//      trained (or restored from a previous run).
//   2. The gateway deploys endpoint "city"; every itinerary request is
//      encoded as a kItineraryRequest frame and served through
//      Gateway::ServeFrame — the same bytes a cluster router would
//      forward to a shard.
//   3. Each decoded plan is re-checked *independently* of the planner:
//      travel legs recomputed with geo::HaversineKm, the clock re-walked
//      stop by stop, and the time budget (with its return leg), open
//      hours at arrival, the no-repeat rule and the per-category quota
//      re-verified from scratch. Any violation exits non-zero.
//   4. The batched scorer (one RecommendBatch per frontier wave) is
//      compared bit-for-bit against a planner whose scorer serves each
//      wave one query at a time — the determinism/parity contract of
//      docs/itinerary.md.
//
//   ./build/itinerary_demo
//
// The demo runs the default PlannerOptions. TSPN_CHECKPOINT_DIR overrides
// where the checkpoint lives (default ".").

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "eval/constraints.h"
#include "eval/model_registry.h"
#include "geo/geometry.h"
#include "plan/itinerary.h"
#include "serve/codec.h"
#include "serve/gateway.h"

using namespace tspn;

namespace {

int failures = 0;

#define DEMO_CHECK(cond, ...)                \
  do {                                       \
    if (!(cond)) {                           \
      std::printf("  VIOLATION: " __VA_ARGS__); \
      std::printf("\n");                     \
      ++failures;                            \
    }                                        \
  } while (0)

/// The planner's clock quantization: offsets advance in whole seconds.
int64_t ClockTs(int64_t start_time, double hours) {
  return start_time + static_cast<int64_t>(std::llround(hours * 3600.0));
}

/// Re-walks one plan from scratch and checks every feasibility rule the
/// planner promises. Everything here is derived only from the dataset and
/// the request — never from the planner's own bookkeeping.
void CheckPlanFeasible(const data::CityDataset& dataset,
                       const plan::ItineraryRequest& request,
                       const plan::ItineraryPlan& plan) {
  const data::Trajectory& traj = dataset.trajectory(request.start);
  const int64_t anchor =
      traj.checkins[static_cast<size_t>(request.start.prefix_len) - 1].poi_id;

  eval::ConstraintEvaluator evaluator(dataset, request.constraints,
                                      request.start);

  geo::GeoPoint loc = dataset.poi(anchor).loc;
  double clock = 0.0;
  double total_km = 0.0;
  std::vector<int64_t> visited = {anchor};
  std::vector<int> per_category(dataset.categories().size(), 0);

  for (const plan::ItineraryStop& stop : plan.stops) {
    const data::Poi& poi = dataset.poi(stop.poi_id);
    const double leg_km = geo::HaversineKm(loc, poi.loc);
    const double arrive = clock + leg_km / request.travel_speed_kmh;
    const double depart = arrive + request.dwell_hours;

    DEMO_CHECK(stop.travel_km == leg_km, "travel_km mismatch at POI %lld",
               static_cast<long long>(stop.poi_id));
    DEMO_CHECK(stop.arrive_hours == arrive, "arrival clock mismatch");
    DEMO_CHECK(stop.depart_hours == depart, "departure clock mismatch");
    DEMO_CHECK(depart <= request.time_budget_hours,
               "budget exceeded mid-plan (%.3f > %.3f)", depart,
               request.time_budget_hours);

    for (int64_t seen : visited) {
      DEMO_CHECK(seen != stop.poi_id, "repeated POI %lld",
                 static_cast<long long>(stop.poi_id));
    }
    visited.push_back(stop.poi_id);

    if (request.max_stops_per_category > 0) {
      ++per_category[static_cast<size_t>(poi.category)];
      DEMO_CHECK(per_category[static_cast<size_t>(poi.category)] <=
                     request.max_stops_per_category,
                 "category quota exceeded (category %d)", poi.category);
    }

    if (request.enforce_open_hours) {
      const int64_t start_time =
          request.start_time >= 0
              ? request.start_time
              : traj.checkins[static_cast<size_t>(request.start.prefix_len) - 1]
                    .timestamp;
      DEMO_CHECK(evaluator.AllowsAt(stop.poi_id, ClockTs(start_time, arrive)),
                 "POI %lld closed at its arrival time",
                 static_cast<long long>(stop.poi_id));
    }

    loc = poi.loc;
    clock = depart;
    total_km += leg_km;
  }

  if (request.return_to_start && !plan.stops.empty()) {
    const double back_km = geo::HaversineKm(loc, dataset.poi(anchor).loc);
    clock += back_km / request.travel_speed_kmh;
    total_km += back_km;
    DEMO_CHECK(clock <= request.time_budget_hours,
               "return leg blows the budget (%.3f > %.3f)", clock,
               request.time_budget_hours);
  }
  DEMO_CHECK(plan.total_km == total_km, "total_km mismatch");
  DEMO_CHECK(plan.total_hours == clock, "total_hours mismatch");
}

void ExpectSameResponse(const plan::ItineraryResponse& a,
                        const plan::ItineraryResponse& b, const char* what) {
  DEMO_CHECK(a.plans.size() == b.plans.size(), "%s: plan count differs", what);
  for (size_t p = 0; p < a.plans.size() && p < b.plans.size(); ++p) {
    const plan::ItineraryPlan& pa = a.plans[p];
    const plan::ItineraryPlan& pb = b.plans[p];
    DEMO_CHECK(pa.stops.size() == pb.stops.size(), "%s: plan %zu length",
               what, p);
    DEMO_CHECK(pa.total_score == pb.total_score, "%s: plan %zu score", what, p);
    DEMO_CHECK(pa.total_km == pb.total_km, "%s: plan %zu distance", what, p);
    for (size_t s = 0; s < pa.stops.size() && s < pb.stops.size(); ++s) {
      DEMO_CHECK(pa.stops[s].poi_id == pb.stops[s].poi_id &&
                     pa.stops[s].model_score == pb.stops[s].model_score,
                 "%s: plan %zu stop %zu", what, p, s);
    }
  }
}

}  // namespace

int main() {
  data::CityProfile profile = data::CityProfile::TestTiny();
  profile.name = "ItinerarySim";
  auto city = data::CityDataset::Generate(profile);

  const char* dir_env = std::getenv("TSPN_CHECKPOINT_DIR");
  const std::string checkpoint =
      std::string(dir_env != nullptr ? dir_env : ".") + "/itinerary_demo.ckpt";

  eval::ModelOptions options;
  options.dm = 16;
  options.seed = 17;
  options.image_resolution = 16;
  auto model = eval::ModelRegistry::Global().Create("TSPN-RA", city, options);
  if (model == nullptr) {
    std::printf("model registry has no TSPN-RA\n");
    return 1;
  }
  if (!model->LoadCheckpoint(checkpoint)) {
    std::printf("training TSPN-RA (1 epoch) -> '%s'\n", checkpoint.c_str());
    eval::TrainOptions train;
    train.epochs = 1;
    train.max_samples_per_epoch = 96;
    model->Train(train);
    model->SaveCheckpoint(checkpoint);
  }

  serve::DeployConfig config;
  config.model_name = "TSPN-RA";
  config.dataset = city;
  config.checkpoint_path = checkpoint;
  config.model_options = options.ToKeyValues();
  config.engine_options.num_threads = 2;

  serve::Gateway gateway;
  std::string error;
  if (!gateway.Deploy("city", config, &error)) {
    std::printf("deploy failed: %s\n", error.c_str());
    return 1;
  }

  // Local parity references against the same restored weights: the
  // batched planner (default scorer = RecommendBatch) and a serial one
  // whose scorer serves each wave one Recommend at a time.
  plan::PlannerOptions planner_options;
  plan::ItineraryPlanner batched(*model, city, planner_options);
  plan::ItineraryPlanner serial(*model, city, planner_options);
  serial.set_scorer([&model](common::Span<eval::RecommendRequest> requests) {
    std::vector<eval::RecommendResponse> responses;
    responses.reserve(requests.size());
    for (const eval::RecommendRequest& request : requests) {
      responses.push_back(model->Recommend(request));
    }
    return responses;
  });

  const std::vector<data::SampleRef> samples =
      city->Samples(data::Split::kTest);
  if (samples.empty()) {
    std::printf("no test samples\n");
    return 1;
  }

  std::printf("planning %d itineraries over the wire...\n", 8);
  int plans_checked = 0;
  for (int i = 0; i < 8; ++i) {
    plan::ItineraryRequest request;
    request.start = samples[static_cast<size_t>(i) % samples.size()];
    request.k_stops = 2 + i % 3;
    request.time_budget_hours = 4.0 + i;
    request.travel_speed_kmh = 25.0 + 5.0 * (i % 3);
    request.dwell_hours = 0.5;
    request.return_to_start = i % 2 == 1;
    request.max_stops_per_category = i % 3 == 2 ? 1 : 0;
    if (i % 2 == 0) {
      request.enforce_open_hours = true;
      request.start_time = 1700000000 + 7200 * i;
    }

    // The wire path: encode, serve, decode.
    const std::vector<uint8_t> frame =
        serve::EncodeItineraryRequest("city", request);
    const std::vector<uint8_t> reply = gateway.ServeFrame(frame);
    serve::FrameType type = serve::FrameType::kRequest;
    if (serve::PeekFrameType(reply, &type) != serve::DecodeStatus::kOk ||
        type != serve::FrameType::kItineraryResponse) {
      std::string message;
      serve::DecodeErrorFrame(reply, &message);
      std::printf("  VIOLATION: request %d got no itinerary response (%s)\n",
                  i, message.c_str());
      ++failures;
      continue;
    }
    plan::ItineraryResponse wired;
    if (serve::DecodeItineraryResponse(reply, &wired) !=
        serve::DecodeStatus::kOk) {
      std::printf("  VIOLATION: undecodable itinerary response\n");
      ++failures;
      continue;
    }

    for (const plan::ItineraryPlan& p : wired.plans) {
      CheckPlanFeasible(*city, request, p);
      ++plans_checked;
    }

    // Batched-vs-serial parity, and the wire reply against both.
    plan::ItineraryResponse batched_out;
    plan::ItineraryResponse serial_out;
    if (!batched.Plan(request, &batched_out, &error) ||
        !serial.Plan(request, &serial_out, &error)) {
      std::printf("  VIOLATION: local planner refused request %d: %s\n", i,
                  error.c_str());
      ++failures;
      continue;
    }
    ExpectSameResponse(batched_out, serial_out, "batched vs serial");
    ExpectSameResponse(wired, batched_out, "wire vs local");

    if (!wired.plans.empty()) {
      const plan::ItineraryPlan& best = wired.plans[0];
      std::printf(
          "  #%d k=%d budget=%4.1fh %s-> %zu plan(s); best: %zu stops, "
          "score %.4f, %.2f km, %.2f h\n",
          i, request.k_stops, request.time_budget_hours,
          request.return_to_start ? "(round trip) " : "", wired.plans.size(),
          best.stops.size(), best.total_score, best.total_km,
          best.total_hours);
    } else {
      std::printf("  #%d k=%d budget=%4.1fh -> no feasible plan\n", i,
                  request.k_stops, request.time_budget_hours);
    }
  }

  if (plans_checked == 0) {
    std::printf("VIOLATION: no plan was ever produced — smoke is vacuous\n");
    ++failures;
  }
  if (failures != 0) {
    std::printf("FAILED: %d violation(s)\n", failures);
    return 1;
  }
  std::printf("all %d plans feasible; batched == serial == wire. OK\n",
              plans_checked);
  return 0;
}
