#ifndef TSPN_EVAL_COLD_START_H_
#define TSPN_EVAL_COLD_START_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "eval/recommend.h"
#include "geo/geometry.h"
#include "spatial/grid_index.h"

namespace tspn::eval {

/// Priors for POIs that first appear mid-stream — after the serving model's
/// embedding tables were shaped — and are therefore unknown to the model
/// and silently unrankable (the "Forecasting Unseen POI Visits" direction).
/// A cold POI is scored from context instead of learned embeddings:
///
///   prior(p | from, t) = proximity * category-time affinity * local density
///
/// where proximity is an exponential decay exp(-d_km / tau) from the user's
/// reference location, the affinity is the visit share of p's category in
/// the current day-part (accumulated from the observed stream), and density
/// is the grid-cell visit mass around p (people go where people go).
/// Augment() blends cold POIs into a ranked response *strictly below* every
/// model-ranked item — a prior may surface an unseen POI, never displace a
/// learned ranking.
///
/// Thread-safe: the trainer records visits while serving-side callers score.
class ColdStartPriors {
 public:
  struct Options {
    double tau_km = 1.5;  ///< proximity decay length in km
    int32_t grid_cells_per_side = 16;
  };

  ColdStartPriors(std::shared_ptr<const data::CityDataset> dataset,
                  Options options);

  /// Registers a POI the dataset does not know. Idempotent per id; ids that
  /// collide with dataset POIs are rejected (false).
  bool AddPoi(int64_t poi_id, const geo::GeoPoint& loc, int32_t category);

  /// Records one observed visit (any POI, known or cold) into the
  /// category-time and spatial-density statistics.
  void RecordVisit(const geo::GeoPoint& loc, int32_t category,
                   int64_t timestamp);

  int64_t NumColdPois() const;
  bool Contains(int64_t poi_id) const;

  /// Prior score of a registered cold POI given the user's last location
  /// and the query time; 0 for unregistered ids.
  double Score(int64_t poi_id, const geo::GeoPoint& from,
               int64_t timestamp) const;

  /// Appends cold POIs (prior-ordered, best first) to the response until it
  /// holds `top_n` items, each scored into the band strictly below the
  /// model's worst-ranked item. Returns how many were added.
  int64_t Augment(const geo::GeoPoint& from, int64_t timestamp, int64_t top_n,
                  RecommendResponse* response) const;

 private:
  struct ColdPoi {
    geo::GeoPoint loc;
    int32_t category = 0;
  };

  double ScoreLocked(const ColdPoi& poi, const geo::GeoPoint& from,
                     int64_t timestamp) const;

  std::shared_ptr<const data::CityDataset> dataset_;
  Options options_;
  spatial::GridIndex density_grid_;

  mutable std::mutex mutex_;
  std::unordered_map<int64_t, ColdPoi> cold_pois_;
  /// visits[category][day_part] and the per-day-part totals.
  std::unordered_map<int32_t, std::vector<int64_t>> category_visits_;
  std::vector<int64_t> day_part_totals_;
  std::vector<int64_t> tile_visits_;  ///< density mass per grid cell
  int64_t max_tile_visits_ = 0;
};

}  // namespace tspn::eval

#endif  // TSPN_EVAL_COLD_START_H_
