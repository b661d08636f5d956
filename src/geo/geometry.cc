#include "geo/geometry.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace tspn::geo {

namespace {
constexpr double kEarthRadiusKm = 6371.0;
constexpr double kDegToRad = M_PI / 180.0;
}  // namespace

double HaversineKm(const GeoPoint& a, const GeoPoint& b) {
  double lat1 = a.lat * kDegToRad, lat2 = b.lat * kDegToRad;
  double dlat = (b.lat - a.lat) * kDegToRad;
  double dlon = (b.lon - a.lon) * kDegToRad;
  double s = std::sin(dlat / 2.0), t = std::sin(dlon / 2.0);
  double h = s * s + std::cos(lat1) * std::cos(lat2) * t * t;
  // min(h, 1) rather than min(1, h): a NaN coordinate then yields NaN, not
  // half the Earth's circumference, so NaN fails every fence test.
  return 2.0 * kEarthRadiusKm * std::asin(std::sqrt(std::min(h, 1.0)));
}

double EquirectangularKm(const GeoPoint& a, const GeoPoint& b) {
  double mean_lat = 0.5 * (a.lat + b.lat) * kDegToRad;
  double x = (b.lon - a.lon) * kDegToRad * std::cos(mean_lat);
  double y = (b.lat - a.lat) * kDegToRad;
  return kEarthRadiusKm * std::sqrt(x * x + y * y);
}

BoundingBox BoundingBox::Quadrant(int index) const {
  TSPN_CHECK_GE(index, 0);
  TSPN_CHECK_LT(index, 4);
  double mid_lat = 0.5 * (min_lat + max_lat);
  double mid_lon = 0.5 * (min_lon + max_lon);
  bool north = (index & 2) != 0;
  bool east = (index & 1) != 0;
  return BoundingBox{north ? mid_lat : min_lat, east ? mid_lon : min_lon,
                     north ? max_lat : mid_lat, east ? max_lon : mid_lon};
}

double BoundingBox::AreaKm2() const {
  GeoPoint sw{min_lat, min_lon};
  GeoPoint se{min_lat, max_lon};
  GeoPoint nw{max_lat, min_lon};
  return EquirectangularKm(sw, se) * EquirectangularKm(sw, nw);
}

void BoundingBox::Normalize(const GeoPoint& p, double* x, double* y) const {
  double lon_span = std::max(LonSpan(), 1e-12);
  double lat_span = std::max(LatSpan(), 1e-12);
  *x = std::clamp((p.lon - min_lon) / lon_span, 0.0, 1.0);
  *y = std::clamp((p.lat - min_lat) / lat_span, 0.0, 1.0);
}

GeoPoint BoundingBox::Clamp(const GeoPoint& p) const {
  GeoPoint out = p;
  out.lat = std::clamp(out.lat, min_lat, std::nextafter(max_lat, min_lat));
  out.lon = std::clamp(out.lon, min_lon, std::nextafter(max_lon, min_lon));
  return out;
}

GeoPoint Lerp(const GeoPoint& a, const GeoPoint& b, double t) {
  return {a.lat + (b.lat - a.lat) * t, a.lon + (b.lon - a.lon) * t};
}

double MinDistanceKm(const BoundingBox& box, const GeoPoint& p) {
  // The nearest point of an axis-aligned lat/lon rectangle is the point
  // clamped into it (per-axis independence holds at city scales).
  GeoPoint nearest{std::clamp(p.lat, box.min_lat, box.max_lat),
                   std::clamp(p.lon, box.min_lon, box.max_lon)};
  return HaversineKm(nearest, p);
}

double MaxCornerDistanceKm(const BoundingBox& box, const GeoPoint& p) {
  double best = 0.0;
  for (double lat : {box.min_lat, box.max_lat}) {
    for (double lon : {box.min_lon, box.max_lon}) {
      best = std::max(best, HaversineKm({lat, lon}, p));
    }
  }
  return best;
}

}  // namespace tspn::geo
