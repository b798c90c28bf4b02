#ifndef COLR_CORE_TREE_H_
#define COLR_CORE_TREE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/cluster_tree.h"
#include "common/clock.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "core/node_arena.h"
#include "core/reading_table.h"
#include "core/slot_cache.h"
#include "geo/geo.h"
#include "sensor/sensor.h"

namespace colr {

/// The COLR-Tree index structure: a k-means cluster hierarchy over
/// sensor locations (built in batch, §III-C) where every node carries
/// a slot cache — leaves cache raw readings (one ReadingTable entry
/// per sensor), internal nodes cache per-slot aggregates over their
/// descendants' cached readings (§IV-B). All caches share one globally
/// aligned SlotScheme.
///
/// This class owns structure + cache state and their maintenance
/// (the native equivalent of the paper's roll / slot-insert /
/// slot-delete / slot-update triggers). Query execution lives in
/// ColrEngine; sampling in sampling.{h,cc}.
///
/// Thread safety (full lock hierarchy in DESIGN.md "Concurrency
/// model"): the tree structure (topology, bboxes, item ranges, the
/// sensor catalog) is immutable after construction and read lock-free.
/// Mutable cache state is protected by an epoch-versioned, subtree-
/// sharded write protocol, acquired strictly in this order —
///   1. epoch_latch_: writers (InsertReading) hold it shared, so the
///      slot-window head is frozen for the duration of an insert;
///      window rolls/expunges (AdvanceTo, the insert-side roll
///      trigger) and whole-tree audits (CheckCacheConsistency) hold
///      it exclusive and advance the epoch;
///   2. shard_mutex_: a striped writer lock keyed by the leaf's
///      ancestor at writer_shard_level (the "shard node"). Inserts
///      whose leaf-to-root paths diverge below the shard level
///      proceed fully concurrently;
///   3. root_mutex_: the shard node and its ancestors are shared by
///      every shard, so that top path segment (at most
///      writer_shard_level + 1 ring updates) merges under one short
///      critical section — it also makes the non-invertible min/max
///      recompute safe, because a recompute at any root-region node
///      holds the lock that covers all mutators of its children;
///   4. node_mutex_ (innermost): striped per-node locks guarding each
///      node's slot cache, a leaf's cached-sensor list and its
///      sensors' cached readings (held one at a time), letting
///      concurrent queries read nodes a writer is not touching.
/// There is no global reading lock. The reading table is partitioned
/// like the writers: a cached reading is written under its shard's
/// stripe plus its leaf's node stripe and read under either (queries
/// take only the leaf stripe); a partition's LRF links, fetch seqs and
/// bucket heads stay under the shard stripe. One atomic seq counter
/// orders fetches across partitions, so capacity eviction picks the
/// exact global least-recently-fetched victim by comparing the
/// partitions' (slot, seq) candidates.
/// Per-slot version tags (AggregateSlotCache::SlotVersion) additionally
/// validate recompute-from-children against concurrent slot mutation,
/// turning any protocol gap into a retry instead of a lost update.
/// Node mean availability and the slot-window head are single atomic
/// words. All threads (including tests) read cached readings through
/// the copying accessors (LookupCache, CachedReading, ...); the
/// reading table is internal.
///
/// The epoch side of this protocol is *statically checked*: every
/// private maintenance method carries a COLR_REQUIRES /
/// COLR_REQUIRES_SHARED contract on epoch_latch_ and `clang
/// -Wthread-safety` (the static leg of scripts/check.sh) proves each
/// call path acquires the right mode. The striped levels
/// (shard_mutex_, node_mutex_) resolve their stripe at runtime, which
/// the analysis cannot follow — those contracts live in the DESIGN.md
/// §6 lock-to-data table and are exercised by the TSan suites instead.
class ColrTree {
 public:
  struct Options {
    ClusterTreeOptions cluster;
    /// Slot width Δ. Choose with OptimizeSlotSize() (§IV-C) or default
    /// to t_max / 4.
    TimeMs slot_delta_ms = 0;
    /// Maximum sensor expiry period t_max. 0 = derive from sensors.
    TimeMs t_max_ms = 0;
    /// Raw-reading cache capacity (number of readings); 0 = unbounded.
    size_t cache_capacity = 0;
    /// Level of the "shard node" partitioning concurrent writers:
    /// inserts lock only their leaf's ancestor at this level (plus the
    /// short root-region critical section above it). -1 = auto (level
    /// 1 — the root's children — which maximizes the concurrent
    /// portion of the propagation path); 0 = a single shard, i.e.
    /// writers fully serialized (the pre-sharding behavior, kept as
    /// the baseline mode for writer-scaling benchmarks).
    int writer_shard_level = -1;
  };

  /// Structural node view: the one-cache-line arena record. All
  /// structural fields (bbox, level, parent, item range, child block)
  /// are immutable after construction. Mutable per-node cache state —
  /// slot caches, availability, leaf cached-sensor lists — lives in the
  /// tree's parallel arrays and is reached through the id-based
  /// accessors below (slot_cache(), mean_availability(), ...), not
  /// through the record.
  using Node = ArenaNodeRecord;

  ColrTree(std::vector<SensorInfo> sensors, Options options);

  ColrTree(const ColrTree&) = delete;
  ColrTree& operator=(const ColrTree&) = delete;

  // ---- Structure access (immutable after construction) ------------------

  int root() const { return root_; }
  int height() const { return height_; }
  size_t num_nodes() const { return arena_.size(); }
  const Node& node(int id) const { return arena_.record(id); }
  /// The node's children as an arena-id range (breadth ordering makes
  /// every child block contiguous; iteration order matches the cluster
  /// build's left-to-right child order).
  ChildRange children(int id) const { return arena_.children(id); }
  const Point& centroid(int id) const { return arena_.centroid(id); }
  const NodeArena& arena() const { return arena_; }
  /// Mean historical availability of the node's descendant sensors
  /// (a_i, §V-A). Atomic: refreshed online by the availability tracker
  /// while query threads read it.
  double mean_availability(int id) const {
    return availability_[static_cast<size_t>(id)];
  }
  /// The node's per-slot aggregate cache (tests and diagnostics only;
  /// guarded by the node's stripe in node_mutex_ on mutating paths).
  const AggregateSlotCache& slot_cache(int id) const {
    return caches_[static_cast<size_t>(id)];
  }
  const std::vector<SensorInfo>& sensors() const { return sensors_; }
  const SensorInfo& sensor(SensorId id) const { return sensors_[id]; }
  /// Permutation of sensor ids; node item ranges index into it.
  const std::vector<SensorId>& sensor_order() const { return sensor_order_; }
  /// Leaf node id holding a sensor.
  int LeafOf(SensorId sensor) const { return leaf_of_sensor_[sensor]; }
  /// Ancestor of `node_id` at `level` (or the node itself if it is
  /// already at or above that level).
  int AncestorAtLevel(int node_id, int level) const {
    int n = node_id;
    while (n >= 0 && arena_.record(n).level > level &&
           arena_.record(n).parent >= 0) {
      n = arena_.record(n).parent;
    }
    return n;
  }
  const SlotScheme& scheme() const { return scheme_; }
  /// Maximum sensor expiry period (resolved from options or sensors).
  TimeMs t_max_ms() const { return t_max_ms_; }
  const Options& options() const { return options_; }

  /// Exact number of sensors inside `region` (the "ideal result set
  /// size" used to bin queries in Fig. 3).
  int CountSensorsInRegion(const Rect& region) const;

  /// Maps a CLUSTER distance (the query's grouping radius, §III-B) to
  /// the coarsest tree level whose nodes' mean bounding-box diagonal
  /// does not exceed it. Clamped to [0, height-1].
  int LevelForClusterDistance(double distance) const;

  /// Replaces every node's mean-availability metadata from fresh
  /// per-sensor estimates (indexed by SensorId) — the hook for an
  /// online AvailabilityTracker. Estimates drive the oversampling
  /// factor of Algorithm 1. Thread-safe (atomic per-node stores).
  void RefreshAvailability(const std::vector<double>& estimates);

  /// Appends the sensor ids under `node_id` whose location lies
  /// inside `region` to `out` (callers reuse one buffer across nodes).
  void SensorsUnderInRegion(int node_id, const Rect& region,
                            std::vector<SensorId>* out) const;

  // ---- Cache maintenance (the paper's triggers) -------------------------

  /// Inserts a freshly collected reading: rolls the global window if
  /// the reading's expiry lies beyond the newest slot (roll trigger),
  /// stores it at the leaf (slot insert trigger, evicting under the
  /// cache constraint — slot delete trigger), and propagates aggregate
  /// deltas to the root (slot update trigger). A reading whose expiry
  /// slot already slid out of the window (late arrival after a
  /// concurrent roll) is dropped and counted — caching it would both
  /// be useless (no query can admit it) and corrupt the ring caches.
  /// Thread-safe; inserts into disjoint writer shards run
  /// concurrently (see the class comment's lock hierarchy). The
  /// EXCLUDES contract encodes that the epoch latch is not reentrant:
  /// calling back into the write path from maintenance would
  /// self-deadlock.
  void InsertReading(const Reading& reading) COLR_EXCLUDES(epoch_latch_);

  /// Advances the window so it covers `now` .. `now + t_max` and
  /// expunges slots that slid out. Called at query time so idle
  /// periods don't leave stale slots in the window. Thread-safe.
  void AdvanceTo(TimeMs now) COLR_EXCLUDES(epoch_latch_);

  /// Marks cached readings as fetched (LRF policy input). Thread-safe.
  void TouchCached(SensorId sensor) COLR_EXCLUDES(epoch_latch_);

  size_t CachedReadingCount() const;

  /// Cumulative counters over the cache-maintenance triggers — what a
  /// moving-clock replay exercises (roll → expunge cascade, §IV-B) and
  /// what bench/timed_replay reports. All atomic; snapshot freely.
  struct MaintenanceCounters {
    /// Roll events (window head advanced at least one slot).
    AtomicCounter<int64_t> rolls = 0;
    /// Total slots the window slid across all rolls.
    AtomicCounter<int64_t> slots_rolled = 0;
    /// Readings expunged because their slot slid out of the window.
    AtomicCounter<int64_t> readings_expunged = 0;
    /// Readings evicted by the cache's capacity constraint.
    AtomicCounter<int64_t> readings_evicted = 0;
    /// Late-arriving readings dropped because their expiry slot was
    /// already outside the window at insert time.
    AtomicCounter<int64_t> late_readings_dropped = 0;
    /// Non-invertible removals that forced a slot recompute from
    /// children (the cache-table recompute cascade).
    AtomicCounter<int64_t> slot_recomputes = 0;
    /// Recomputes whose version-tag validation failed and retried —
    /// expected to stay 0 (the shard/root lock domains make child
    /// snapshots stable); any nonzero value flags a protocol gap the
    /// version tags absorbed.
    AtomicCounter<int64_t> slot_recompute_retries = 0;
  };
  const MaintenanceCounters& maintenance() const { return maintenance_; }

  /// Resolved writer-sharding level (Options::writer_shard_level with
  /// -1 resolved against the built tree's height).
  int writer_shard_level() const { return shard_level_; }

  /// Per-shard cache occupancy: cached readings and distinct occupied
  /// slots in each writer shard's reading-table partition. Follows the
  /// writer protocol (shared epoch + each shard's stripe, one at a
  /// time), so it is safe to call concurrently with inserts.
  /// Diagnostics for the writer-scaling sweep: a skewed balance
  /// explains shard_writer contention that shard count alone would not.
  struct ShardOccupancy {
    int shard_node = -1;
    size_t readings = 0;
    size_t occupied_slots = 0;
  };
  std::vector<ShardOccupancy> ShardOccupancies() const
      COLR_EXCLUDES(epoch_latch_);

  /// Number of completed exclusive write epochs (window rolls,
  /// consistency audits). Advances at least once per roll.
  uint64_t write_epoch() const { return epoch_latch_.epoch(); }

  // ---- Cache lookup -----------------------------------------------------

  /// The query slot for the query's freshness requirement: the slot
  /// containing the freshness bound timestamp `now - staleness`.
  /// Slots strictly newer are usable — they hold readings whose expiry
  /// lies beyond the bound, i.e., readings still valid within the
  /// user's staleness window (§IV-A Lookup; see DESIGN.md). The slot
  /// is global (one SlotScheme for every node), so no node argument.
  SlotId QuerySlot(TimeMs now, TimeMs staleness_ms) const;

  /// Cached aggregate at an internal node: merge of all usable slots
  /// (strictly newer than the query slot). For leaves, performs the
  /// paper's exact per-entry inspection (expiry vs freshness bound +
  /// optional region refinement) over the leaf's cached readings.
  struct CacheLookup {
    Aggregate agg;
    int slots_merged = 0;
    /// The cached readings used (leaf lookups only; internal lookups
    /// report counts via agg.count) — copied out under the leaf's
    /// stripe so callers never hold references into the reading table.
    std::vector<Reading> used_readings;
  };
  /// How leaf entries are admitted against the freshness bound.
  ///   kExact       — per-entry expiry comparison, including entries
  ///                  in the query slot itself (§IV-B leaf
  ///                  refinement). Admits the most readings.
  ///   kSlotAligned — the same slot rule internal aggregates use.
  ///                  Used by the sensor-selection path (§VI-A filters
  ///                  "sufficiently cached" nodes by slot-aligned
  ///                  cache weights) so that borderline readings get
  ///                  re-probed and refreshed instead of pinning
  ///                  subtrees just below full-cache coverage.
  enum class FreshnessRule { kExact, kSlotAligned };
  CacheLookup LookupCache(int node_id, TimeMs now, TimeMs staleness_ms,
                          const Rect* region_filter = nullptr,
                          FreshnessRule rule = FreshnessRule::kExact) const;

  /// Number of cached readings usable for the given freshness at a
  /// node — the |c_i| term of Algorithm 1. Conservative (slot rule)
  /// at internal nodes, exact at leaves.
  int64_t CachedCount(int node_id, TimeMs now, TimeMs staleness_ms) const;

  /// Copy of the cached reading for a sensor (empty if none), read
  /// under its leaf's stripe.
  std::optional<Reading> CachedReading(SensorId sensor) const;

  /// Whether the sensor's cached reading lies in a window slot
  /// strictly newer than `query_slot` — the slot-aligned admission
  /// rule the sampler's candidate filter shares with internal
  /// aggregate lookups.
  bool CachedInNewerSlot(SensorId sensor, SlotId query_slot) const;

  /// Structural / cache-consistency invariants (tests): each leaf's
  /// cached-sensor list names exactly its cached readings, the reading
  /// table's links are sound (ReadingTable::CheckLinks) and its
  /// partitions add up to CachedReadingCount(), and per-node slot
  /// aggregates equal the aggregates recomputed from the raw cached
  /// readings below the node.
  Status CheckCacheConsistency() const COLR_EXCLUDES(epoch_latch_);

 private:
  /// Advances the window head to `slot` and, if it actually moved,
  /// counts the roll and expunges slid-out readings. The exclusive
  /// epoch the contract demands is what drains every shared-epoch
  /// writer before the head moves.
  void RollWindowLocked(SlotId slot) COLR_REQUIRES(epoch_latch_);
  void ExpungeAfterRoll() COLR_REQUIRES(epoch_latch_);
  /// Shard node (lock key into shard_mutex_) for a leaf's write path.
  int ShardOf(int leaf_id) const {
    return AncestorAtLevel(leaf_id, shard_level_);
  }
  /// The reading-table partition of a leaf's sensors, whose links are
  /// guarded by the shard's stripe in shard_mutex_; the epoch contract
  /// keeps the exclusive side (expunges walk the partitions with no
  /// stripes held) drained while any caller works on one.
  size_t PartitionOf(int leaf_id) const COLR_REQUIRES_SHARED(epoch_latch_) {
    return static_cast<size_t>(partition_of_node_[ShardOf(leaf_id)]);
  }
  /// Evicts cached readings until the capacity constraint holds, each
  /// under the *victim's* shard lock. Caller must hold the shared
  /// epoch and no shard lock. Key `protect` is never evicted.
  void EnforceCacheCapacity(ReadingTable::Key protect)
      COLR_REQUIRES_SHARED(epoch_latch_);
  void PropagateAdd(int leaf_id, SlotId slot, double value)
      COLR_REQUIRES_SHARED(epoch_latch_);
  void PropagateRemove(int leaf_id, SlotId slot, double value)
      COLR_REQUIRES_SHARED(epoch_latch_);
  /// One step of PropagateRemove: undoes `value` at `node_id`,
  /// recomputing the slot from children when the decrement was not
  /// invertible.
  void RemoveSlotValueAt(int node_id, SlotId slot, double value)
      COLR_REQUIRES_SHARED(epoch_latch_);
  void RecomputeSlotFromChildren(int node_id, SlotId slot)
      COLR_REQUIRES_SHARED(epoch_latch_);
  Aggregate LeafSlotAggregate(int leaf_id, SlotId slot) const
      COLR_REQUIRES_SHARED(epoch_latch_);
  /// Erases the reading cached under `key` from `partition` and from
  /// its leaf's cached-sensor list, under the leaf's node stripe. The
  /// caller holds the partition's shard stripe or the exclusive epoch.
  void EraseCached(size_t partition, ReadingTable::Key key)
      COLR_REQUIRES_SHARED(epoch_latch_);

  Options options_;
  std::vector<SensorInfo> sensors_;
  /// Flat breadth-ordered structure storage: one-cache-line records
  /// plus the SoA child-MBR arrays the traversal kernels scan.
  NodeArena arena_;
  /// Per-node slot-aggregate caches, indexed by arena id. Contiguous:
  /// a recompute-from-children walks the consecutive cache objects of
  /// the node's child block. Each guarded by its node's stripe in
  /// node_mutex_.
  std::vector<AggregateSlotCache> caches_;
  /// Per-node mean availability (atomic words, indexed by arena id).
  std::vector<AtomicDouble> availability_;
  /// Per-leaf table keys of the sensors with a cached reading, indexed
  /// by arena id (empty for internal nodes), each guarded by its node's
  /// stripe in node_mutex_. Appended on first insert, swap-removed on
  /// erase: leaf lookups and slot recomputes accumulate values in this
  /// order, which the golden fingerprints pin.
  std::vector<std::vector<ReadingTable::Key>> cached_keys_;
  std::vector<SensorId> sensor_order_;
  /// Each sensor's reading-table key: its position in sensor_order_.
  std::vector<ReadingTable::Key> key_of_sensor_;
  /// leaf node id for each sensor.
  std::vector<int> leaf_of_sensor_;
  int root_ = -1;
  int height_ = 0;
  TimeMs t_max_ms_ = 0;
  SlotScheme scheme_;
  /// The cached raw readings: one entry per sensor in leaf order (keyed
  /// by key_of_sensor_), one partition per writer shard (lock domains
  /// in the class comment). Partitions are unbounded; the tree enforces
  /// options_.cache_capacity across all of them (EnforceCacheCapacity),
  /// tracking the total in cached_total_.
  ReadingTable table_;
  /// Shard node id of each table partition (lock key).
  std::vector<int> shard_node_of_partition_;
  /// node id -> table partition (-1 for non-shard nodes).
  std::vector<int> partition_of_node_;
  /// Total readings cached across all partitions.
  std::atomic<size_t> cached_total_{0};

  /// Resolved Options::writer_shard_level.
  int shard_level_ = 0;
  /// Level 1 of the lock hierarchy: shared by writers (freezes the
  /// window head for the duration of an insert), exclusive for rolls,
  /// expunges and consistency audits.
  mutable EpochLatch epoch_latch_{SyncSite::kEpochShared,
                                  SyncSite::kEpochExclusive};
  /// Level 2: per-shard writer locks, keyed by the shard node id.
  /// A thread holds at most one shard stripe at a time.
  mutable StripedMutex shard_mutex_{SyncSite::kShardWriter};
  /// Level 3: serializes mutation of the root region (the shard node
  /// and its ancestors), which every shard's propagation path shares.
  /// A SpinMutex: the section is two ring-buffer updates (plus a rare
  /// recompute), far below the cost of a contended futex handoff.
  mutable SpinMutex root_mutex_{SyncSite::kRootSpin};
  /// Level 4 (innermost): per-node stripe locks. A thread holds at
  /// most one stripe at a time.
  mutable StripedMutex node_mutex_{SyncSite::kNodeStripe};
  MaintenanceCounters maintenance_;
};

}  // namespace colr

#endif  // COLR_CORE_TREE_H_
