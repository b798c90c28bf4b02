#ifndef COLR_CLUSTER_KMEANS_H_
#define COLR_CLUSTER_KMEANS_H_

#include <vector>

#include "common/rng.h"
#include "geo/geo.h"

namespace colr {

struct KMeansOptions {
  /// Lloyd iterations at most; the loop stops early once no
  /// assignment changes.
  int max_iterations = 25;
};

struct KMeansResult {
  std::vector<Point> centroids;
  /// assignment[i] = cluster index of points[i], in [0, k).
  std::vector<int> assignment;
  int iterations = 0;
  /// Sum of squared distances to assigned centroids.
  double inertia = 0.0;
};

/// Lloyd's k-means over 2D points, seeded by k-means++ (D^2
/// weighting). Never returns empty clusters: a cluster that empties
/// out is re-seeded with the point farthest from its centroid. If
/// k >= points.size(), each point gets its own cluster. Used by the
/// COLR-Tree batch builder (§III-C).
KMeansResult KMeans(const std::vector<Point>& points, int k, Rng& rng,
                    const KMeansOptions& options = {});

/// KMeans over a subset of `points` given by `indices`; assignment is
/// parallel to `indices`.
KMeansResult KMeansSubset(const std::vector<Point>& points,
                          const std::vector<int>& indices, int k, Rng& rng,
                          const KMeansOptions& options = {});

}  // namespace colr

#endif  // COLR_CLUSTER_KMEANS_H_
