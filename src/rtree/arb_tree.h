#ifndef COLR_RTREE_ARB_TREE_H_
#define COLR_RTREE_ARB_TREE_H_

#include <cstdint>
#include <vector>

#include "cluster/cluster_tree.h"
#include "common/clock.h"
#include "common/status.h"
#include "core/aggregate.h"
#include "geo/geo.h"
#include "rtree/bptree.h"
#include "sensor/sensor.h"

namespace colr {

/// aRB-tree (Papadias et al., the paper's reference [9]): an R-tree
/// over sensor locations where every node maintains *multiple
/// aggregates over time*, "the temporal dimension indexed with a
/// standard B-tree". Readings are recorded into per-node B+-tree
/// timelines keyed by time bucket; spatio-temporal aggregate queries
/// combine fully-covered nodes' timeline ranges and refine partial
/// nodes down to recorded readings.
///
/// Contrast with COLR-Tree (§II): the aRB-tree indexes *recorded
/// history* for warehouse-style analysis; it neither collects live
/// data nor expires it. Temporal resolution is the bucket width —
/// queries are answered at bucket granularity (the window is expanded
/// to full buckets), exactly as tested against brute force.
class ArbTree {
 public:
  struct Options {
    ClusterTreeOptions cluster;
    /// Temporal bucket width of the per-node timelines.
    TimeMs bucket_ms = kMsPerMinute;
  };

  ArbTree(std::vector<SensorInfo> sensors, Options options);
  explicit ArbTree(std::vector<SensorInfo> sensors)
      : ArbTree(std::move(sensors), Options()) {}

  ArbTree(const ArbTree&) = delete;
  ArbTree& operator=(const ArbTree&) = delete;

  /// Records a historical reading (keyed by its timestamp).
  void Record(const Reading& reading);

  /// Aggregate of recorded readings with location in `region` and
  /// timestamp in the bucket-expanded window [t1, t2].
  Aggregate Query(const Rect& region, TimeMs t1, TimeMs t2,
                  int64_t* nodes_visited = nullptr) const;

  size_t num_readings() const { return num_readings_; }
  int height() const { return height_; }
  TimeMs bucket_ms() const { return options_.bucket_ms; }

  /// Every node's timeline equals the aggregation of its subtree's
  /// recorded readings, bucket by bucket.
  Status CheckInvariants() const;

 private:
  using Timeline = BPlusTree<int64_t, Aggregate, 32>;

  struct Node {
    Rect bbox;
    int level = 0;
    std::vector<int> children;
    int item_begin = 0;
    int item_end = 0;
    Timeline timeline;

    bool IsLeaf() const { return children.empty(); }
  };

  int64_t BucketOf(TimeMs t) const {
    int64_t q = t / options_.bucket_ms;
    if (t % options_.bucket_ms < 0) --q;
    return q;
  }

  Aggregate TimelineRange(const Node& n, int64_t b1, int64_t b2) const;

  Options options_;
  std::vector<SensorInfo> sensors_;
  std::vector<SensorId> sensor_order_;
  std::vector<int> leaf_of_sensor_;
  std::vector<Node> nodes_;
  int root_ = -1;
  int height_ = 0;
  /// Recorded history per leaf (for partial-overlap refinement).
  std::vector<std::vector<Reading>> leaf_history_;
  size_t num_readings_ = 0;
};

}  // namespace colr

#endif  // COLR_RTREE_ARB_TREE_H_
