// Reproduces Figure 12: the Florida coastal case study. A user active on the
// eastern coast heads to a coastal POI; we compare the geographic spread of
// the top-50 recommendations of (a) full TSPN-RA, (b) TSPN-RA with 20% image
// noise, (c) TSPN-RA without tile filtering, (d) the best baseline (LSTPM).

#include <cmath>

#include "bench/bench_common.h"

namespace {

using namespace tspn;

struct CaseResult {
  double coastal_fraction = 0.0;  // top-50 POIs within the coastal band
  double mean_dist_to_target_km = 0.0;
};

CaseResult Analyze(const data::CityDataset& dataset,
                   const std::vector<int64_t>& top50, int64_t target) {
  CaseResult result;
  const rs::CityLayout& layout = dataset.layout();
  const geo::GeoPoint target_loc = dataset.poi(target).loc;
  double coast_band = 3.0 * layout.coast().coastal_width_deg;
  for (int64_t pid : top50) {
    const geo::GeoPoint& loc = dataset.poi(pid).loc;
    double d = layout.CoastDistanceDeg(loc);
    if (d > -coast_band && d <= 0.0) result.coastal_fraction += 1.0;
    result.mean_dist_to_target_km += geo::EquirectangularKm(loc, target_loc);
  }
  result.coastal_fraction /= static_cast<double>(top50.size());
  result.mean_dist_to_target_km /= static_cast<double>(top50.size());
  return result;
}

/// Picks a test sample whose target POI lies in the coastal band.
data::SampleRef PickCoastalCase(const data::CityDataset& dataset) {
  for (const data::SampleRef& sample : dataset.Samples(data::Split::kTest)) {
    const data::Poi& target = dataset.poi(dataset.Target(sample).poi_id);
    double d = dataset.layout().CoastDistanceDeg(target.loc);
    if (d > -dataset.layout().coast().coastal_width_deg && d <= 0.0 &&
        sample.prefix_len >= 3) {
      return sample;
    }
  }
  return dataset.Samples(data::Split::kTest).front();
}

}  // namespace

int main() {
  using namespace tspn;
  bench::BenchSettings settings = bench::DefaultSettings();
  auto dataset = bench::MakeDataset(data::CityProfile::WeeplacesFlorida());
  data::SampleRef coastal_case = PickCoastalCase(*dataset);
  int64_t target = dataset->Target(coastal_case).poi_id;
  std::printf("Figure 12 — coastal case study (Florida-sim)\n"
              "Target POI %lld at coast distance %.4f deg; user prefix length "
              "%d\n\n",
              static_cast<long long>(target),
              dataset->layout().CoastDistanceDeg(dataset->poi(target).loc),
              coastal_case.prefix_len);

  common::TablePrinter table({"Variant", "top-50 coastal frac",
                              "mean dist to target (km)", "target found@50"});
  auto report = [&](const std::string& name, eval::NextPoiModel& model) {
    eval::RecommendRequest request;
    request.sample = coastal_case;
    request.top_n = 50;
    std::vector<int64_t> top50 = model.Recommend(request).PoiIds();
    CaseResult r = Analyze(*dataset, top50, target);
    bool found =
        std::find(top50.begin(), top50.end(), target) != top50.end();
    table.AddRow({name, common::TablePrinter::Metric(r.coastal_fraction),
                  common::TablePrinter::Fixed(r.mean_dist_to_target_km, 1),
                  found ? "yes" : "no"});
  };

  {
    core::TspnRa model(dataset, bench::MakeTspnConfig(*dataset, settings));
    model.Train(bench::MakeTrainOptions(settings, 3e-3f));
    report("(a) TSPN-RA", model);
  }
  {
    core::TspnRaConfig config = bench::MakeTspnConfig(*dataset, settings);
    config.image_noise_fraction = 0.2;
    core::TspnRa model(dataset, config);
    model.Train(bench::MakeTrainOptions(settings, 3e-3f));
    report("(b) TSPN-RA, 20% image noise", model);
  }
  {
    core::TspnRaConfig config = bench::MakeTspnConfig(*dataset, settings);
    config.use_two_step = false;
    core::TspnRa model(dataset, config);
    model.Train(bench::MakeTrainOptions(settings, 3e-3f));
    report("(c) TSPN-RA, no tile filter", model);
  }
  {
    eval::ModelOptions options;
    options.dm = settings.dm;
    options.seed = settings.seed;
    auto model =
        eval::ModelRegistry::Global().Create("LSTPM", dataset, options);
    TSPN_CHECK(model != nullptr) << "LSTPM is not registered";
    model->Train(bench::MakeTrainOptions(settings, 5e-3f));
    report("(d) LSTPM", *model);
  }
  table.Print();
  std::printf(
      "\nShape check vs paper Fig. 12: the full model concentrates its top-50 "
      "along the coast near the target; image noise pushes recommendations "
      "inland; removing the tile filter scatters them; the baseline spreads "
      "over popular areas regardless of the coastal context.\n");
  return 0;
}
