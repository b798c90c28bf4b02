#include "cluster/kmeans.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace colr {

namespace {

std::vector<Point> SeedCentroids(const std::vector<Point>& points,
                                 const std::vector<int>& indices, int k,
                                 Rng& rng) {
  std::vector<Point> centroids;
  centroids.reserve(k);
  const int n = static_cast<int>(indices.size());
  // k-means++: first centroid uniform, then D^2-weighted picks.
  centroids.push_back(points[indices[rng.UniformInt(n)]]);
  std::vector<double> d2(n, std::numeric_limits<double>::infinity());
  while (static_cast<int>(centroids.size()) < k) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      d2[i] = std::min(d2[i],
                       SquaredDistance(points[indices[i]], centroids.back()));
      total += d2[i];
    }
    if (total <= 0.0) {
      // All remaining points coincide with existing centroids; fall
      // back to an arbitrary point so we still return k centroids.
      centroids.push_back(points[indices[rng.UniformInt(n)]]);
      continue;
    }
    double target = rng.NextDouble() * total;
    int chosen = n - 1;
    for (int i = 0; i < n; ++i) {
      target -= d2[i];
      if (target <= 0.0) {
        chosen = i;
        break;
      }
    }
    centroids.push_back(points[indices[chosen]]);
  }
  return centroids;
}

}  // namespace

KMeansResult KMeansSubset(const std::vector<Point>& points,
                          const std::vector<int>& indices, int k, Rng& rng,
                          const KMeansOptions& options) {
  KMeansResult result;
  const int n = static_cast<int>(indices.size());
  if (n == 0 || k <= 0) return result;
  if (k >= n) {
    result.centroids.reserve(n);
    result.assignment.resize(n);
    for (int i = 0; i < n; ++i) {
      result.centroids.push_back(points[indices[i]]);
      result.assignment[i] = i;
    }
    return result;
  }

  result.centroids = SeedCentroids(points, indices, k, rng);
  result.assignment.assign(n, -1);

  std::vector<double> sum_x(k), sum_y(k);
  std::vector<int> counts(k);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations;
    bool changed = false;
    std::fill(sum_x.begin(), sum_x.end(), 0.0);
    std::fill(sum_y.begin(), sum_y.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    result.inertia = 0.0;
    for (int i = 0; i < n; ++i) {
      const Point& p = points[indices[i]];
      int best = 0;
      double best_d2 = std::numeric_limits<double>::infinity();
      for (int c = 0; c < k; ++c) {
        const double d2 = SquaredDistance(p, result.centroids[c]);
        if (d2 < best_d2) {
          best_d2 = d2;
          best = c;
        }
      }
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        changed = true;
      }
      result.inertia += best_d2;
      sum_x[best] += p.x;
      sum_y[best] += p.y;
      ++counts[best];
    }
    for (int c = 0; c < k; ++c) {
      if (counts[c] > 0) {
        result.centroids[c] = {sum_x[c] / counts[c], sum_y[c] / counts[c]};
      } else {
        // Re-seed an empty cluster with the point currently farthest
        // from its centroid, so every cluster stays non-empty.
        int farthest = 0;
        double far_d2 = -1.0;
        for (int i = 0; i < n; ++i) {
          const double d2 = SquaredDistance(
              points[indices[i]], result.centroids[result.assignment[i]]);
          if (d2 > far_d2) {
            far_d2 = d2;
            farthest = i;
          }
        }
        result.centroids[c] = points[indices[farthest]];
        result.assignment[farthest] = c;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return result;
}

KMeansResult KMeans(const std::vector<Point>& points, int k, Rng& rng,
                    const KMeansOptions& options) {
  std::vector<int> indices(points.size());
  std::iota(indices.begin(), indices.end(), 0);
  return KMeansSubset(points, indices, k, rng, options);
}

}  // namespace colr
