#include "geo/geo.h"

#include <cmath>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace colr {
namespace {

// ---------------------------------------------------------------------------
// Rect
// ---------------------------------------------------------------------------

TEST(RectTest, EmptyRect) {
  Rect e = Rect::Empty();
  EXPECT_TRUE(e.IsEmpty());
  EXPECT_EQ(e.Area(), 0.0);
  EXPECT_FALSE(e.Contains(Point{0, 0}));
  EXPECT_FALSE(e.Intersects(Rect::FromCorners(0, 0, 1, 1)));
}

TEST(RectTest, FromCornersNormalizes) {
  Rect r = Rect::FromCorners(5, 7, 1, 2);
  EXPECT_DOUBLE_EQ(r.min_x, 1);
  EXPECT_DOUBLE_EQ(r.min_y, 2);
  EXPECT_DOUBLE_EQ(r.max_x, 5);
  EXPECT_DOUBLE_EQ(r.max_y, 7);
  EXPECT_DOUBLE_EQ(r.Area(), 20.0);
  EXPECT_DOUBLE_EQ(r.Perimeter(), 18.0);
}

TEST(RectTest, ContainsPoint) {
  Rect r = Rect::FromCorners(0, 0, 10, 10);
  EXPECT_TRUE(r.Contains(Point{5, 5}));
  EXPECT_TRUE(r.Contains(Point{0, 0}));    // boundary inclusive
  EXPECT_TRUE(r.Contains(Point{10, 10}));  // boundary inclusive
  EXPECT_FALSE(r.Contains(Point{10.001, 5}));
  EXPECT_FALSE(r.Contains(Point{-0.001, 5}));
}

TEST(RectTest, ContainsRect) {
  Rect outer = Rect::FromCorners(0, 0, 10, 10);
  EXPECT_TRUE(outer.Contains(Rect::FromCorners(2, 2, 8, 8)));
  EXPECT_TRUE(outer.Contains(outer));
  EXPECT_FALSE(outer.Contains(Rect::FromCorners(2, 2, 12, 8)));
  EXPECT_TRUE(outer.Contains(Rect::Empty()));
  EXPECT_FALSE(Rect::Empty().Contains(outer));
}

TEST(RectTest, IntersectsAndIntersection) {
  Rect a = Rect::FromCorners(0, 0, 5, 5);
  Rect b = Rect::FromCorners(3, 3, 8, 8);
  Rect c = Rect::FromCorners(6, 6, 9, 9);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(b.Intersects(c));
  Rect ab = a.Intersection(b);
  EXPECT_DOUBLE_EQ(ab.min_x, 3);
  EXPECT_DOUBLE_EQ(ab.max_x, 5);
  EXPECT_DOUBLE_EQ(ab.Area(), 4.0);
  EXPECT_TRUE(a.Intersection(c).IsEmpty());
  // Touching edges count as intersecting with zero-area intersection.
  Rect d = Rect::FromCorners(5, 0, 7, 5);
  EXPECT_TRUE(a.Intersects(d));
  EXPECT_DOUBLE_EQ(a.Intersection(d).Area(), 0.0);
}

TEST(RectTest, UnionAndExpand) {
  Rect a = Rect::FromCorners(0, 0, 2, 2);
  Rect b = Rect::FromCorners(5, 5, 6, 6);
  Rect u = a.Union(b);
  EXPECT_DOUBLE_EQ(u.min_x, 0);
  EXPECT_DOUBLE_EQ(u.max_x, 6);
  EXPECT_TRUE(u.Contains(a));
  EXPECT_TRUE(u.Contains(b));
  EXPECT_TRUE(Rect::Empty().Union(a) == a);
  EXPECT_TRUE(a.Union(Rect::Empty()) == a);

  Rect e = Rect::Empty();
  e.Expand(Point{3, 4});
  EXPECT_TRUE(e.Contains(Point{3, 4}));
  EXPECT_DOUBLE_EQ(e.Area(), 0.0);
}

TEST(RectPropertyTest, UnionCommutativeAndContainsBoth) {
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    Rect a = Rect::FromCorners(rng.Uniform(-10, 10), rng.Uniform(-10, 10),
                               rng.Uniform(-10, 10), rng.Uniform(-10, 10));
    Rect b = Rect::FromCorners(rng.Uniform(-10, 10), rng.Uniform(-10, 10),
                               rng.Uniform(-10, 10), rng.Uniform(-10, 10));
    EXPECT_TRUE(a.Union(b) == b.Union(a));
    EXPECT_TRUE(a.Union(b).Contains(a));
    EXPECT_TRUE(a.Union(b).Contains(b));
    // Intersection is contained in both.
    Rect inter = a.Intersection(b);
    if (!inter.IsEmpty()) {
      EXPECT_TRUE(a.Contains(inter));
      EXPECT_TRUE(b.Contains(inter));
    }
    // Intersects is symmetric and consistent with Intersection.
    EXPECT_EQ(a.Intersects(b), b.Intersects(a));
    EXPECT_EQ(a.Intersects(b), !a.Intersection(b).IsEmpty());
  }
}

// ---------------------------------------------------------------------------
// OverlapFraction
// ---------------------------------------------------------------------------

TEST(OverlapFractionTest, FullPartialNone) {
  Rect inner = Rect::FromCorners(0, 0, 2, 2);
  EXPECT_DOUBLE_EQ(OverlapFraction(inner, Rect::FromCorners(-1, -1, 3, 3)),
                   1.0);
  EXPECT_DOUBLE_EQ(OverlapFraction(inner, Rect::FromCorners(1, 0, 3, 2)),
                   0.5);
  EXPECT_DOUBLE_EQ(OverlapFraction(inner, Rect::FromCorners(5, 5, 6, 6)),
                   0.0);
}

TEST(OverlapFractionTest, DegenerateInnerCountsAsFullWhenTouched) {
  Rect point_box = Rect::FromPoint(Point{1, 1});
  EXPECT_DOUBLE_EQ(
      OverlapFraction(point_box, Rect::FromCorners(0, 0, 2, 2)), 1.0);
  EXPECT_DOUBLE_EQ(
      OverlapFraction(point_box, Rect::FromCorners(2, 2, 3, 3)), 0.0);
}

TEST(OverlapFractionTest, BoundedByOne) {
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    Rect a = Rect::FromCorners(rng.Uniform(0, 10), rng.Uniform(0, 10),
                               rng.Uniform(0, 10), rng.Uniform(0, 10));
    Rect b = Rect::FromCorners(rng.Uniform(0, 10), rng.Uniform(0, 10),
                               rng.Uniform(0, 10), rng.Uniform(0, 10));
    const double f = OverlapFraction(a, b);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0 + 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Segments
// ---------------------------------------------------------------------------

TEST(SegmentsTest, BasicIntersections) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {2, 2}, {0, 2}, {2, 0}));
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {1, 1}, {2, 2}, {3, 3}));
  // Shared endpoint.
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {1, 1}, {1, 1}, {2, 0}));
  // Collinear overlapping.
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {2, 0}, {1, 0}, {3, 0}));
  // Collinear disjoint.
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {1, 0}, {2, 0}, {3, 0}));
}

// ---------------------------------------------------------------------------
// Polygon
// ---------------------------------------------------------------------------

Polygon UnitSquare() {
  return Polygon({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
}

TEST(PolygonTest, EmptyPolygon) {
  Polygon p;
  EXPECT_TRUE(p.IsEmpty());
  EXPECT_FALSE(p.Contains(Point{0, 0}));
  Polygon degenerate({{0, 0}, {1, 1}});
  EXPECT_TRUE(degenerate.IsEmpty());
}

TEST(PolygonTest, ContainsPoint) {
  Polygon p = UnitSquare();
  EXPECT_TRUE(p.Contains(Point{2, 2}));
  EXPECT_TRUE(p.Contains(Point{0, 0}));  // boundary
  EXPECT_TRUE(p.Contains(Point{2, 4}));  // edge
  EXPECT_FALSE(p.Contains(Point{5, 2}));
  EXPECT_FALSE(p.Contains(Point{-1, -1}));
}

TEST(PolygonTest, ConcavePolygonContains) {
  // L-shape: the notch at top-right is outside.
  Polygon p({{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}});
  EXPECT_TRUE(p.Contains(Point{1, 3}));
  EXPECT_TRUE(p.Contains(Point{3, 1}));
  EXPECT_FALSE(p.Contains(Point{3, 3}));
}

TEST(PolygonTest, ContainsRect) {
  Polygon p = UnitSquare();
  EXPECT_TRUE(p.Contains(Rect::FromCorners(1, 1, 3, 3)));
  EXPECT_FALSE(p.Contains(Rect::FromCorners(1, 1, 5, 3)));
  // Concave L-shape: a rect fully inside the lower arm is contained; a
  // rect reaching into the notch is not, even though the test corners
  // alone would not reveal it.
  Polygon l({{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}});
  EXPECT_TRUE(l.Contains(Rect::FromCorners(0.5, 0.5, 3.5, 1.8)));
  EXPECT_FALSE(l.Contains(Rect::FromCorners(1, 2.5, 3.5, 3.5)));
}

TEST(PolygonTest, IntersectsRect) {
  Polygon p = UnitSquare();
  EXPECT_TRUE(p.Intersects(Rect::FromCorners(3, 3, 6, 6)));   // overlap
  EXPECT_TRUE(p.Intersects(Rect::FromCorners(1, 1, 2, 2)));   // inside
  EXPECT_TRUE(p.Intersects(Rect::FromCorners(-1, -1, 5, 5)));  // covers
  EXPECT_FALSE(p.Intersects(Rect::FromCorners(5, 5, 6, 6)));
}

TEST(PolygonTest, SignedArea) {
  EXPECT_DOUBLE_EQ(UnitSquare().SignedArea(), 16.0);  // CCW positive
  Polygon cw({{0, 0}, {0, 4}, {4, 4}, {4, 0}});
  EXPECT_DOUBLE_EQ(cw.SignedArea(), -16.0);
}

TEST(PolygonTest, FromRectMatchesRectSemantics) {
  Rect r = Rect::FromCorners(1, 2, 5, 7);
  Polygon p = Polygon::FromRect(r);
  EXPECT_TRUE(p.bounding_box() == r);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    Point pt{rng.Uniform(0, 8), rng.Uniform(0, 9)};
    EXPECT_EQ(p.Contains(pt), r.Contains(pt)) << pt.x << "," << pt.y;
  }
}

TEST(PolygonPropertyTest, RectContainmentConsistentWithPointTests) {
  // If the polygon contains a rect, it must contain every sampled
  // point of the rect.
  Polygon l({{0, 0}, {8, 0}, {8, 3}, {3, 3}, {3, 8}, {0, 8}});
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    Rect r = Rect::FromCorners(rng.Uniform(0, 8), rng.Uniform(0, 8),
                               rng.Uniform(0, 8), rng.Uniform(0, 8));
    if (!l.Contains(r)) continue;
    for (int j = 0; j < 20; ++j) {
      Point pt{rng.Uniform(r.min_x, r.max_x),
               rng.Uniform(r.min_y, r.max_y)};
      EXPECT_TRUE(l.Contains(pt));
    }
  }
}

TEST(PointTest, Distance) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({1, 1}, {2, 2}), 2.0);
}

}  // namespace
}  // namespace colr
