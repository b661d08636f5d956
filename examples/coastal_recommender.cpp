// Coastal recommender: the Fig. 12 scenario as a runnable application. A
// coastal state (Florida-like) is simulated; TSPN-RA and a history-aware
// baseline are trained; for a user heading to the shore we compare where
// each model sends them — then ask TSPN-RA the production-shaped version of
// the same question through the v2 API: a scored, geo-fenced query
// restricted to the stretch of coast the user is actually following.
//
//   ./build/examples/coastal_recommender

#include <algorithm>
#include <cstdio>

#include "core/tspn_ra.h"
#include "data/dataset.h"
#include "eval/model_registry.h"
#include "eval/recommend.h"

namespace {

using namespace tspn;

/// Fraction of recommended POIs lying in the coastal band.
double CoastalFraction(const data::CityDataset& dataset,
                       const std::vector<int64_t>& pois) {
  double band = 3.0 * dataset.layout().coast().coastal_width_deg;
  double hits = 0.0;
  for (int64_t pid : pois) {
    double d = dataset.layout().CoastDistanceDeg(dataset.poi(pid).loc);
    if (d > -band && d <= 0.0) hits += 1.0;
  }
  return pois.empty() ? 0.0 : hits / static_cast<double>(pois.size());
}

}  // namespace

int main() {
  using namespace tspn;
  // A small coastal profile (Florida-like shape at example scale).
  data::CityProfile profile = data::CityProfile::TestTiny();
  profile.name = "MiniFlorida";
  profile.coastal = true;
  profile.seed = 404;
  auto dataset = data::CityDataset::Generate(profile);
  std::printf("MiniFlorida: %lld POIs, coastline at lon ~%.3f\n",
              static_cast<long long>(dataset->pois().size()),
              dataset->layout().CoastLonAt(profile.bbox.Center().lat));

  // Find a test case whose target is coastal.
  data::SampleRef coastal_case = dataset->Samples(data::Split::kTest).front();
  for (const data::SampleRef& sample : dataset->Samples(data::Split::kTest)) {
    const data::Poi& target = dataset->poi(dataset->Target(sample).poi_id);
    double d = dataset->layout().CoastDistanceDeg(target.loc);
    if (d > -dataset->layout().coast().coastal_width_deg && d <= 0.0) {
      coastal_case = sample;
      break;
    }
  }
  const data::Poi& target = dataset->poi(dataset->Target(coastal_case).poi_id);
  std::printf("Case: user %d heading to POI#%lld (%.4f, %.4f), coastal "
              "distance %.4f deg\n\n",
              coastal_case.user, static_cast<long long>(target.id),
              target.loc.lat, target.loc.lon,
              dataset->layout().CoastDistanceDeg(target.loc));

  eval::TrainOptions options;
  options.epochs = 3;
  options.max_samples_per_epoch = 160;

  core::TspnRaConfig config;
  config.dm = 32;
  config.image_resolution = 16;
  config.top_k_tiles = profile.top_k_tiles;
  core::TspnRa tspn(dataset, config);
  tspn.Train(options);
  eval::RecommendRequest top50;
  top50.sample = coastal_case;
  top50.top_n = 50;
  std::vector<int64_t> tspn_top = tspn.Recommend(top50).PoiIds();

  eval::ModelOptions lstpm_options;
  lstpm_options.dm = 32;
  lstpm_options.seed = 7;
  auto lstpm =
      eval::ModelRegistry::Global().Create("LSTPM", dataset, lstpm_options);
  if (lstpm == nullptr) {
    std::fprintf(stderr, "LSTPM is not registered\n");
    return 1;
  }
  lstpm->Train(options);
  std::vector<int64_t> lstpm_top = lstpm->Recommend(top50).PoiIds();

  std::printf("Top-50 recommendation spread:\n");
  std::printf("  TSPN-RA : %.0f%% of recommendations in the coastal band\n",
              100.0 * CoastalFraction(*dataset, tspn_top));
  std::printf("  LSTPM   : %.0f%% of recommendations in the coastal band\n",
              100.0 * CoastalFraction(*dataset, lstpm_top));
  bool tspn_found = std::find(tspn_top.begin(), tspn_top.end(), target.id) !=
                    tspn_top.end();
  bool lstpm_found = std::find(lstpm_top.begin(), lstpm_top.end(), target.id) !=
                     lstpm_top.end();
  std::printf("  target in top-50: TSPN-RA=%s, LSTPM=%s\n",
              tspn_found ? "yes" : "no", lstpm_found ? "yes" : "no");
  std::printf("\nThe remote-sensing-augmented tile filter biases TSPN-RA "
              "towards the shoreline the user is actually following "
              "(the paper's Fig. 12 observation).\n");

  // A constrained query: scored top-5 within 4 km of the user's last
  // check-in, excluding places already visited on this trip. Constraints
  // are applied before top-k selection, so the fence still yields a full
  // list whenever enough coastal candidates exist.
  const data::Trajectory& traj = dataset->trajectory(coastal_case);
  const data::Poi& last =
      dataset->poi(traj.checkins[coastal_case.prefix_len - 1].poi_id);
  eval::RecommendRequest request;
  request.sample = coastal_case;
  request.top_n = 5;
  request.constraints.geo_center = last.loc;
  request.constraints.geo_radius_km = 4.0;
  request.constraints.exclude_visited = true;
  eval::RecommendResponse response = tspn.Recommend(request);
  std::printf("\nScored top-5 within 4 km of the last check-in (%.4f, %.4f), "
              "unvisited only — %lld tiles screened:\n",
              last.loc.lat, last.loc.lon,
              static_cast<long long>(response.tiles_screened));
  for (size_t r = 0; r < response.items.size(); ++r) {
    const eval::ScoredPoi& item = response.items[r];
    const data::Poi& poi = dataset->poi(item.poi_id);
    std::printf("  %zu. POI#%-4lld score=%+.4f tile=%-3lld  %.2f km away, "
                "coast distance %+.4f deg%s\n",
                r + 1, static_cast<long long>(poi.id), item.score,
                static_cast<long long>(item.tile_index),
                geo::HaversineKm(poi.loc, last.loc),
                dataset->layout().CoastDistanceDeg(poi.loc),
                item.poi_id == target.id ? "   <-- actual next visit" : "");
  }
  return 0;
}
