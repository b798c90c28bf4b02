#ifndef COLR_GEO_GEO_H_
#define COLR_GEO_GEO_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "geo/overlap.h"

namespace colr {

/// 2D point. Coordinates are abstract planar units; the workload
/// generators use degrees of latitude/longitude projected to a plane,
/// which is adequate for the viewport-style queries SensorMap issues.
struct Point {
  double x = 0.0;
  double y = 0.0;

  bool operator==(const Point& o) const { return x == o.x && y == o.y; }
};

inline double SquaredDistance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

inline double Distance(const Point& a, const Point& b) {
  return std::sqrt(SquaredDistance(a, b));
}

/// Axis-aligned bounding rectangle [min_x, max_x] x [min_y, max_y].
/// The empty rectangle is representable (min > max) and acts as the
/// identity for Union().
struct Rect {
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();

  static Rect Empty() { return Rect(); }

  static Rect FromPoint(const Point& p) { return {p.x, p.y, p.x, p.y}; }

  static Rect FromCorners(double x0, double y0, double x1, double y1) {
    return {std::min(x0, x1), std::min(y0, y1), std::max(x0, x1),
            std::max(y0, y1)};
  }

  static Rect FromCenter(const Point& c, double half_w, double half_h) {
    return {c.x - half_w, c.y - half_h, c.x + half_w, c.y + half_h};
  }

  bool IsEmpty() const { return min_x > max_x || min_y > max_y; }

  double Width() const { return IsEmpty() ? 0.0 : max_x - min_x; }
  double Height() const { return IsEmpty() ? 0.0 : max_y - min_y; }
  double Area() const { return Width() * Height(); }
  double Perimeter() const { return 2.0 * (Width() + Height()); }

  Point Center() const {
    return {(min_x + max_x) / 2.0, (min_y + max_y) / 2.0};
  }

  bool Contains(const Point& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  /// True iff `other` lies entirely inside this rectangle.
  bool Contains(const Rect& other) const {
    if (other.IsEmpty()) return true;
    if (IsEmpty()) return false;
    return other.min_x >= min_x && other.max_x <= max_x &&
           other.min_y >= min_y && other.max_y <= max_y;
  }

  bool Intersects(const Rect& other) const {
    if (IsEmpty() || other.IsEmpty()) return false;
    return BoxesOverlap(min_x, min_y, max_x, max_y, other.min_x,
                        other.min_y, other.max_x, other.max_y);
  }

  Rect Intersection(const Rect& other) const {
    Rect r{std::max(min_x, other.min_x), std::max(min_y, other.min_y),
           std::min(max_x, other.max_x), std::min(max_y, other.max_y)};
    if (r.min_x > r.max_x || r.min_y > r.max_y) return Empty();
    return r;
  }

  Rect Union(const Rect& other) const {
    if (IsEmpty()) return other;
    if (other.IsEmpty()) return *this;
    return {std::min(min_x, other.min_x), std::min(min_y, other.min_y),
            std::max(max_x, other.max_x), std::max(max_y, other.max_y)};
  }

  void Expand(const Point& p) { *this = Union(FromPoint(p)); }
  void Expand(const Rect& r) { *this = Union(r); }

  bool operator==(const Rect& o) const {
    if (IsEmpty() && o.IsEmpty()) return true;
    return min_x == o.min_x && min_y == o.min_y && max_x == o.max_x &&
           max_y == o.max_y;
  }

  std::string ToString() const;
};

/// Fraction of `inner`'s area that overlaps `outer` — the
/// Overlap(BB(i), A) term of Algorithm 1. Degenerate (zero-area)
/// rectangles fall back to a containment indicator so single-point
/// nodes still receive sampling weight.
double OverlapFraction(const Rect& inner, const Rect& outer);

/// Simple polygon (vertices in order, implicitly closed). SensorMap
/// queries may specify polygonal regions of interest; the index prunes
/// with the polygon's bounding box and refines per point.
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Point> vertices);

  static Polygon FromRect(const Rect& r);

  bool IsEmpty() const { return vertices_.size() < 3; }
  const std::vector<Point>& vertices() const { return vertices_; }
  const Rect& bounding_box() const { return bbox_; }

  /// Even-odd rule point-in-polygon test (boundary points count as
  /// inside).
  bool Contains(const Point& p) const;

  /// Conservative test: true iff the rectangle is entirely inside the
  /// polygon (all four corners inside and no edge crosses the rect).
  bool Contains(const Rect& r) const;

  /// True iff the polygon and the rectangle overlap at all.
  bool Intersects(const Rect& r) const;

  /// Signed area via the shoelace formula (positive if CCW).
  double SignedArea() const;

 private:
  std::vector<Point> vertices_;
  Rect bbox_;
};

/// True iff segments (a,b) and (c,d) intersect (including endpoints).
bool SegmentsIntersect(const Point& a, const Point& b, const Point& c,
                       const Point& d);

}  // namespace colr

#endif  // COLR_GEO_GEO_H_
