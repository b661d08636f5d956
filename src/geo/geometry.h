#ifndef TSPN_GEO_GEOMETRY_H_
#define TSPN_GEO_GEOMETRY_H_

#include <cstdint>

namespace tspn::geo {

/// A WGS84-style coordinate in degrees. Synthetic cities use the same
/// convention so distances come out in kilometres.
struct GeoPoint {
  double lat = 0.0;
  double lon = 0.0;
};

/// Great-circle distance in kilometres (haversine formula); NaN when a
/// coordinate is NaN.
double HaversineKm(const GeoPoint& a, const GeoPoint& b);

/// Fast equirectangular-approximation distance in kilometres; accurate for
/// city-scale separations and ~5x cheaper than haversine.
double EquirectangularKm(const GeoPoint& a, const GeoPoint& b);

/// Axis-aligned lat/lon rectangle; min corner inclusive, max exclusive for
/// point-assignment purposes so tilings partition space without overlap.
struct BoundingBox {
  double min_lat = 0.0;
  double min_lon = 0.0;
  double max_lat = 0.0;
  double max_lon = 0.0;

  bool Contains(const GeoPoint& p) const {
    return p.lat >= min_lat && p.lat < max_lat && p.lon >= min_lon && p.lon < max_lon;
  }

  GeoPoint Center() const {
    return {0.5 * (min_lat + max_lat), 0.5 * (min_lon + max_lon)};
  }

  double LatSpan() const { return max_lat - min_lat; }
  double LonSpan() const { return max_lon - min_lon; }

  /// Quadrant sub-box: 0=SW, 1=SE, 2=NW, 3=NE.
  BoundingBox Quadrant(int index) const;

  /// Approximate area in km^2 (equirectangular).
  double AreaKm2() const;

  /// Maps a contained point to [0,1)^2 as (x=lon fraction, y=lat fraction).
  /// Out-of-box points are clamped.
  void Normalize(const GeoPoint& p, double* x, double* y) const;

  /// Clamps a point into the half-open box.
  GeoPoint Clamp(const GeoPoint& p) const;
};

/// Linear interpolation between two points.
GeoPoint Lerp(const GeoPoint& a, const GeoPoint& b, double t);

/// Great-circle distance from `p` to the nearest point of `box`; 0 when the
/// point lies inside. Used for circle-vs-tile intersection tests.
double MinDistanceKm(const BoundingBox& box, const GeoPoint& p);

/// Great-circle distance from `p` to the farthest corner of `box` — an upper
/// bound on the distance to any point of the box at city scales.
double MaxCornerDistanceKm(const BoundingBox& box, const GeoPoint& p);

}  // namespace tspn::geo

#endif  // TSPN_GEO_GEOMETRY_H_
