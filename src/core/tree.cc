#include "core/tree.h"

#include <algorithm>
#include <cmath>

namespace colr {

namespace {

TimeMs ResolveTmax(const ColrTree::Options& options,
                   const std::vector<SensorInfo>& sensors) {
  TimeMs t_max = options.t_max_ms;
  if (t_max <= 0) {
    for (const SensorInfo& s : sensors) {
      t_max = std::max(t_max, s.expiry_ms);
    }
    if (t_max <= 0) t_max = kMsPerMinute;
  }
  return t_max;
}

SlotScheme MakeScheme(const ColrTree::Options& options, TimeMs t_max) {
  TimeMs delta = options.slot_delta_ms;
  if (delta <= 0) delta = std::max<TimeMs>(1, t_max / 4);
  // Queries with staleness bound S can use readings that expired up to
  // S ago (DESIGN.md freshness semantics), so the window keeps t_max of
  // history beyond t_max.
  return SlotScheme(delta, 2 * t_max);
}

}  // namespace

ColrTree::ColrTree(std::vector<SensorInfo> sensors, Options options)
    : options_(options),
      sensors_(std::move(sensors)),
      t_max_ms_(ResolveTmax(options, sensors_)),
      scheme_(MakeScheme(options, t_max_ms_)) {
  std::vector<Point> points;
  points.reserve(sensors_.size());
  for (const SensorInfo& s : sensors_) points.push_back(s.location);

  // The cluster build emits a pointer-style DFS-preorder tree; the
  // arena renumbers it into the flat breadth-ordered layout. The
  // item_order permutation is a property of the clustering, not of the
  // node numbering, so item ranges carry over verbatim.
  ClusterTree ct = BuildClusterTree(points, options_.cluster);
  arena_ = NodeArena(ct);
  root_ = arena_.root();
  height_ = arena_.height();
  sensor_order_.assign(ct.item_order.begin(), ct.item_order.end());
  leaf_of_sensor_.assign(sensors_.size(), -1);
  key_of_sensor_.assign(sensors_.size(), ReadingTable::kNoKey);

  const size_t num_nodes = arena_.size();
  caches_.resize(num_nodes);
  availability_ = std::vector<AtomicDouble>(num_nodes);
  cached_keys_.resize(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    ArenaNodeRecord& n = arena_.mutable_record(static_cast<int>(i));
    caches_[i].Resize(scheme_.num_slots());

    double avail_sum = 0.0;
    for (int j = n.item_begin; j < n.item_end; ++j) {
      const SensorInfo& s = sensors_[sensor_order_[j]];
      avail_sum += s.availability;
      n.max_expiry_ms = std::max(n.max_expiry_ms, s.expiry_ms);
    }
    availability_[i] = n.Weight() > 0 ? avail_sum / n.Weight() : 1.0;

    if (n.IsLeaf()) {
      for (int j = n.item_begin; j < n.item_end; ++j) {
        leaf_of_sensor_[sensor_order_[j]] = static_cast<int>(i);
        key_of_sensor_[sensor_order_[j]] = static_cast<ReadingTable::Key>(j);
      }
    }
  }

  // Resolve the writer-sharding level against the built hierarchy.
  // Auto picks level 1 (the root's children): the root region then
  // spans just two nodes per path, maximizing the portion of the
  // leaf-to-root propagation that disjoint shards run concurrently.
  const int max_level = std::max(0, height_ - 1);
  shard_level_ = options_.writer_shard_level >= 0
                     ? std::min(options_.writer_shard_level, max_level)
                     : std::min(1, max_level);

  // One reading-table partition per shard, numbered in leaf order.
  partition_of_node_.assign(arena_.size(), -1);
  for (size_t i = 0; i < arena_.size(); ++i) {
    if (!arena_.record(static_cast<int>(i)).IsLeaf()) continue;
    const int shard = ShardOf(static_cast<int>(i));
    if (partition_of_node_[shard] < 0) {
      partition_of_node_[shard] =
          static_cast<int>(shard_node_of_partition_.size());
      shard_node_of_partition_.push_back(shard);
    }
  }
  table_ = ReadingTable(sensor_order_.size(),
                        shard_node_of_partition_.size(), scheme_.num_slots());
}

int ColrTree::CountSensorsInRegion(const Rect& region) const {
  if (root_ < 0) return 0;
  int count = 0;
  std::vector<int> stack{root_};
  std::vector<int> hits(static_cast<size_t>(arena_.max_fanout()));
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    const Node& n = arena_.record(id);
    if (!n.bbox.Intersects(region)) continue;
    if (region.Contains(n.bbox)) {
      count += n.Weight();
      continue;
    }
    if (n.IsLeaf()) {
      for (int j = n.item_begin; j < n.item_end; ++j) {
        if (region.Contains(sensors_[sensor_order_[j]].location)) ++count;
      }
    } else {
      // Vectorized child-MBR scan over the node's contiguous child
      // block; only overlapping children are pushed.
      const int k = arena_.OverlapChildren(id, region, hits.data());
      for (int t = 0; t < k; ++t) stack.push_back(hits[t]);
    }
  }
  return count;
}

int ColrTree::LevelForClusterDistance(double distance) const {
  if (height_ <= 1) return 0;
  // Mean bbox diagonal per level, coarse to fine. Arena ids are
  // breadth-ordered, so this pass accumulates each level's diagonals
  // in the same left-to-right node order as the pointer layout did —
  // the per-level floating-point sums are bit-identical.
  std::vector<double> sum(height_, 0.0);
  std::vector<int> count(height_, 0);
  for (size_t i = 0; i < arena_.size(); ++i) {
    const Node& n = arena_.record(static_cast<int>(i));
    const double dx = n.bbox.Width();
    const double dy = n.bbox.Height();
    sum[n.level] += std::sqrt(dx * dx + dy * dy);
    ++count[n.level];
  }
  for (int level = 0; level < height_; ++level) {
    if (count[level] == 0) continue;
    if (sum[level] / count[level] <= distance) return level;
  }
  return height_ - 1;
}

void ColrTree::RefreshAvailability(const std::vector<double>& estimates) {
  for (size_t i = 0; i < arena_.size(); ++i) {
    const Node& n = arena_.record(static_cast<int>(i));
    double total = 0.0;
    for (int j = n.item_begin; j < n.item_end; ++j) {
      const SensorId sid = sensor_order_[j];
      total += sid < estimates.size() ? estimates[sid]
                                      : sensors_[sid].availability;
    }
    availability_[i] = n.Weight() > 0 ? total / n.Weight() : 1.0;
  }
}

void ColrTree::SensorsUnderInRegion(int node_id, const Rect& region,
                                    std::vector<SensorId>* out) const {
  const Node& n = arena_.record(node_id);
  const bool full = region.Contains(n.bbox);
  for (int j = n.item_begin; j < n.item_end; ++j) {
    const SensorId sid = sensor_order_[j];
    if (full || region.Contains(sensors_[sid].location)) {
      out->push_back(sid);
    }
  }
}

void ColrTree::ExpungeAfterRoll() {
  // Caller holds the exclusive epoch: no writer, toucher or evictor
  // is active (they all hold the shared side), so the partitions' links
  // can be walked without their shard locks; queries read readings
  // under the leaf stripe alone, which EraseCached takes. Partition,
  // then slot, then LRF order fixes the leaves' cached-sensor lists.
  // No aggregate propagation: the expunged slots are outside the
  // window, so their ring positions lazily reset on reuse.
  size_t total = 0;
  for (size_t p = 0; p < table_.num_partitions(); ++p) {
    while (const std::optional<ReadingTable::Victim> v =
               table_.PeekVictim(p)) {
      if (v->slot >= scheme_.oldest()) break;
      EraseCached(p, v->key);
      ++total;
    }
  }
  maintenance_.readings_expunged += static_cast<int64_t>(total);
  cached_total_.fetch_sub(total, std::memory_order_relaxed);
}

void ColrTree::RollWindowLocked(SlotId slot) {
  const int slid = scheme_.RollTo(slot);
  if (slid > 0) {
    ++maintenance_.rolls;
    maintenance_.slots_rolled += slid;
    ExpungeAfterRoll();
  }
}

void ColrTree::AdvanceTo(TimeMs now) {
  // The window covers [now - t_max, now + t_max] (MakeScheme): newest
  // slot at now + t_max, the rest of the capacity keeping recent history.
  const SlotId needed = scheme_.SlotOf(now + t_max_ms_);
  // Lock-free fast path: the head only moves forward, so a stale read
  // at worst defers the roll to the next advance.
  if (needed <= scheme_.newest()) return;
  MutexLock epoch_lock(epoch_latch_, SyncSite::kEpochExclusive);
  RollWindowLocked(needed);
}

void ColrTree::TouchCached(SensorId sensor) {
  if (sensor >= sensors_.size()) return;
  const int leaf = leaf_of_sensor_[sensor];
  if (leaf < 0) return;
  // LRF links follow the writer protocol: shared epoch (so
  // rolls/expunges see quiesced partitions) + the sensor's shard lock.
  ReaderLock epoch_lock(epoch_latch_, SyncSite::kEpochShared);
  MutexLock shard_lock(shard_mutex_.For(ShardOf(leaf)), SyncSite::kShardWriter);
  table_.Touch(PartitionOf(leaf), scheme_, key_of_sensor_[sensor]);
}

size_t ColrTree::CachedReadingCount() const {
  return cached_total_.load(std::memory_order_acquire);
}

std::vector<ColrTree::ShardOccupancy> ColrTree::ShardOccupancies() const {
  std::vector<ShardOccupancy> out;
  out.reserve(table_.num_partitions());
  // Shared epoch: expunges walk the partitions without shard locks
  // under the exclusive side, so the stripe alone would not exclude
  // them.
  ReaderLock epoch_lock(epoch_latch_, SyncSite::kEpochShared);
  for (size_t p = 0; p < table_.num_partitions(); ++p) {
    ReaderLock shard_lock(shard_mutex_.For(shard_node_of_partition_[p]),
                          SyncSite::kShardWriter);
    out.push_back({shard_node_of_partition_[p], table_.size(p),
                   table_.OccupiedSlots(p)});
  }
  return out;
}

void ColrTree::InsertReading(const Reading& reading) {
  if (reading.sensor >= sensors_.size()) return;
  const SlotId slot = scheme_.SlotOf(reading.expiry);

  if (slot > scheme_.newest()) {
    // Roll trigger: the reading's expiry lies beyond the newest slot,
    // so the window must slide first. Rolls take the exclusive epoch
    // (no writer holds its shared side), keeping the expunge cascade
    // serialized exactly as before. Rare: at most one insert per slot
    // width pays this.
    MutexLock epoch_lock(epoch_latch_, SyncSite::kEpochExclusive);
    RollWindowLocked(slot);
  }

  // Shared epoch: the window head is frozen for the rest of the
  // insert (rolls need the exclusive side), so every InWindow /
  // oldest() test below is stable.
  ReaderLock epoch_lock(epoch_latch_, SyncSite::kEpochShared);
  if (slot < scheme_.oldest()) {
    // Late arrival: the reading's expiry slot slid out of the window
    // before this insert pinned the epoch (the roll above only moves
    // the window forward). Caching it would place a dead reading in
    // the table, and propagating it would re-tag ring positions that
    // in-window slots own. Drop it and count it.
    ++maintenance_.late_readings_dropped;
    return;
  }
  const int leaf = leaf_of_sensor_[reading.sensor];
  if (leaf < 0) return;

  const size_t partition = PartitionOf(leaf);
  const ReadingTable::Key key = key_of_sensor_[reading.sensor];

  {
    // All cache mutation below the root region happens under this
    // leaf's shard lock; inserts into other shards proceed in
    // parallel. The lock serializes every writer of this partition,
    // so the sensor's entry is read here without its node stripe.
    MutexLock shard_lock(shard_mutex_.For(ShardOf(leaf)),
                         SyncSite::kShardWriter);

    // Replacement: remove the old reading from the table and the
    // aggregates *before* the new one lands in either, so that a
    // min/max recompute triggered by the removal never observes the
    // new value. The sensor keeps its place in the leaf's list.
    const Reading* cached = table_.Get(key);
    const bool replaced = cached != nullptr;
    if (replaced) {
      const Reading old = *cached;
      {
        MutexLock node_lock(node_mutex_.For(leaf), SyncSite::kNodeStripe);
        table_.Erase(partition, scheme_, key);
      }
      const SlotId old_slot = scheme_.SlotOf(old.expiry);
      if (scheme_.InWindow(old_slot)) {
        PropagateRemove(leaf, old_slot, old.value);
      }
    } else {
      cached_total_.fetch_add(1, std::memory_order_release);
    }

    {
      MutexLock node_lock(node_mutex_.For(leaf), SyncSite::kNodeStripe);
      table_.Insert(partition, scheme_, key, reading);
      if (!replaced) cached_keys_[static_cast<size_t>(leaf)].push_back(key);
    }
    PropagateAdd(leaf, slot, reading.value);
  }

  // Capacity enforcement runs after our own shard lock is released:
  // the victim may live in any shard, and its removal must be done
  // under *that* shard's lock (one shard stripe at a time, so shard
  // acquisition can never deadlock).
  EnforceCacheCapacity(key);
}

void ColrTree::EnforceCacheCapacity(ReadingTable::Key protect) {
  const size_t capacity = options_.cache_capacity;
  if (capacity == 0) return;
  // Lock-free fast path. cached_total_ already reflects this thread's
  // own insert; if some concurrent insert pushes the cache over
  // capacity after this read, that writer's own enforcement pass sees
  // the overshoot — at quiescence the last mutation's count has been
  // observed by the thread that made it, so the constraint holds.
  while (cached_total_.load(std::memory_order_acquire) > capacity) {
    // Peek phase: the global least-recently-fetched reading in the
    // oldest occupied slot is the (slot, seq)-minimum over the
    // per-partition candidates, because every partition stamps fetches
    // from the table's one sequence. One shard stripe held at a time
    // (shared), so the scan cannot deadlock with writers or other
    // evictors.
    std::optional<ReadingTable::Victim> best;
    size_t best_partition = 0;
    for (size_t p = 0; p < table_.num_partitions(); ++p) {
      ReaderLock peek_lock(shard_mutex_.For(shard_node_of_partition_[p]),
                           SyncSite::kShardWriter);
      const std::optional<ReadingTable::Victim> cand =
          table_.PeekVictim(p, protect);
      if (cand && (!best || cand->slot < best->slot ||
                   (cand->slot == best->slot && cand->seq < best->seq))) {
        best = cand;
        best_partition = p;
      }
    }
    if (!best) return;  // only `protect` remains cached
    // Evict under the victim's shard lock: the erase and the aggregate
    // undo must be atomic with respect to that shard's own writers,
    // whose slot recomputes read the leaf's readings and would
    // otherwise observe the erase before the undo (double-removing the
    // victim's value). Re-resolve locally under the lock; checking
    // *global* minimality again would need other shards' locks
    // (deadlock), and local re-resolution suffices: if the partition
    // still offers the same sensor, erasing it keeps the cache moving
    // toward capacity.
    MutexLock shard_lock(
        shard_mutex_.For(shard_node_of_partition_[best_partition]),
        SyncSite::kShardWriter);
    if (cached_total_.load(std::memory_order_acquire) <= capacity) return;
    const std::optional<ReadingTable::Victim> cand =
        table_.PeekVictim(best_partition, protect);
    if (!cand || cand->key != best->key) {
      continue;  // the partition moved on since the peek; rescan
    }
    const Reading victim = *table_.Get(cand->key);
    EraseCached(best_partition, cand->key);
    cached_total_.fetch_sub(1, std::memory_order_release);
    ++maintenance_.readings_evicted;
    const SlotId vslot = scheme_.SlotOf(victim.expiry);
    if (scheme_.InWindow(vslot)) {
      PropagateRemove(leaf_of_sensor_[victim.sensor], vslot, victim.value);
    }
  }
}

void ColrTree::PropagateAdd(int leaf_id, SlotId slot, double value) {
  int n = leaf_id;
  for (; n >= 0 && arena_.record(n).level > shard_level_;
       n = arena_.record(n).parent) {
    MutexLock node_lock(node_mutex_.For(n), SyncSite::kNodeStripe);
    caches_[static_cast<size_t>(n)].Add(scheme_, slot, value);
  }
  // Root region: the shard node and its ancestors are shared by every
  // shard, so this short tail (at most shard_level_ + 1 ring updates)
  // merges under root_mutex_.
  MutexLock root_lock(root_mutex_, SyncSite::kRootSpin);
  for (; n >= 0; n = arena_.record(n).parent) {
    MutexLock node_lock(node_mutex_.For(n), SyncSite::kNodeStripe);
    caches_[static_cast<size_t>(n)].Add(scheme_, slot, value);
  }
}

Aggregate ColrTree::LeafSlotAggregate(int leaf_id, SlotId slot) const {
  // The gather runs entirely under this leaf's stripe (whose writers
  // all hold the caller's shard lock too). Iterate in cached-sensor
  // list order so the floating-point accumulation order matches the
  // sequential build.
  Aggregate agg;
  ReaderLock node_lock(node_mutex_.For(leaf_id), SyncSite::kNodeStripe);
  for (ReadingTable::Key key : cached_keys_[static_cast<size_t>(leaf_id)]) {
    const Reading* r = table_.Get(key);
    if (r != nullptr && scheme_.SlotOf(r->expiry) == slot) {
      agg.Add(r->value);
    }
  }
  return agg;
}

void ColrTree::RecomputeSlotFromChildren(int node_id, SlotId slot) {
  ++maintenance_.slot_recomputes;
  const Node& n = arena_.record(node_id);
  AggregateSlotCache& own_cache = caches_[static_cast<size_t>(node_id)];
  // The caller's lock domain already makes the child snapshot stable:
  // below the shard node every mutator of the children holds this
  // shard's lock; at and above it, root_mutex_. The version-tag
  // validation is defense in depth — if any interleaving slips a
  // concurrent mutation of this slot between the snapshot and the
  // overwrite, the Set is abandoned and the gather retried instead of
  // silently losing that writer's delta.
  for (;;) {
    uint64_t version;
    {
      ReaderLock node_lock(node_mutex_.For(node_id), SyncSite::kNodeStripe);
      version = own_cache.SlotVersion(scheme_, slot);
    }
    Aggregate agg;
    if (n.IsLeaf()) {
      agg = LeafSlotAggregate(node_id, slot);
    } else {
      // The child block is a contiguous run of arena ids, so this
      // gather is a strided scan over consecutive AggregateSlotCache
      // objects in caches_ — no pointer chasing between children.
      const int child_end = n.child_begin + n.child_count;
      for (int c = n.child_begin; c < child_end; ++c) {
        ReaderLock child_lock(node_mutex_.For(c), SyncSite::kNodeStripe);
        agg.Merge(caches_[static_cast<size_t>(c)].Get(scheme_, slot));
      }
    }
    {
      MutexLock node_lock(node_mutex_.For(node_id), SyncSite::kNodeStripe);
      if (own_cache.SlotVersion(scheme_, slot) == version) {
        own_cache.Set(scheme_, slot, agg);
        return;
      }
    }
    ++maintenance_.slot_recompute_retries;
  }
}

void ColrTree::RemoveSlotValueAt(int node_id, SlotId slot, double value) {
  bool invertible;
  {
    MutexLock node_lock(node_mutex_.For(node_id), SyncSite::kNodeStripe);
    invertible =
        caches_[static_cast<size_t>(node_id)].Remove(scheme_, slot, value);
  }
  if (!invertible) {
    // The removal hit the slot's min/max: the decrement is not
    // invertible (§IV-B), recompute the slot bottom-up from children
    // (the slot-update trigger cascade).
    RecomputeSlotFromChildren(node_id, slot);
  }
}

void ColrTree::PropagateRemove(int leaf_id, SlotId slot, double value) {
  int n = leaf_id;
  for (; n >= 0 && arena_.record(n).level > shard_level_;
       n = arena_.record(n).parent) {
    RemoveSlotValueAt(n, slot, value);
  }
  // Root region: same split as PropagateAdd. Holding root_mutex_ here
  // is also what makes the recompute sound — the children of any
  // root-region node are themselves mutated only under root_mutex_
  // (or, for the shard node's children, under this shard's lock,
  // which the caller already holds).
  MutexLock root_lock(root_mutex_, SyncSite::kRootSpin);
  for (; n >= 0; n = arena_.record(n).parent) {
    RemoveSlotValueAt(n, slot, value);
  }
}

void ColrTree::EraseCached(size_t partition, ReadingTable::Key key) {
  const int leaf = leaf_of_sensor_[sensor_order_[key]];
  MutexLock node_lock(node_mutex_.For(leaf), SyncSite::kNodeStripe);
  table_.Erase(partition, scheme_, key);
  auto& keys = cached_keys_[static_cast<size_t>(leaf)];
  auto it = std::find(keys.begin(), keys.end(), key);
  if (it != keys.end()) {
    *it = keys.back();
    keys.pop_back();
  }
}

SlotId ColrTree::QuerySlot(TimeMs now, TimeMs staleness_ms) const {
  // The paper's lookup rule (§IV-A): hash the freshness bound
  // timestamp; slots strictly younger hold readings whose expiry lies
  // beyond the bound, i.e., readings that were still valid within the
  // user's staleness window.
  return scheme_.SlotOf(now - staleness_ms);
}

ColrTree::CacheLookup ColrTree::LookupCache(int node_id, TimeMs now,
                                            TimeMs staleness_ms,
                                            const Rect* region_filter,
                                            FreshnessRule rule) const {
  const Node& n = arena_.record(node_id);
  CacheLookup out;
  if (n.IsLeaf()) {
    // Per-entry inspection: usable iff the reading was still valid
    // within the staleness window (expiry beyond the freshness
    // bound), either exactly (including entries in the query slot,
    // §IV-B leaf refinement) or slot-aligned.
    const SlotId qslot = QuerySlot(now, staleness_ms);
    ReaderLock node_lock(node_mutex_.For(node_id), SyncSite::kNodeStripe);
    for (ReadingTable::Key key : cached_keys_[static_cast<size_t>(node_id)]) {
      const Reading* cached = table_.Get(key);
      if (cached == nullptr) continue;
      const Reading& r = *cached;
      if (rule == FreshnessRule::kExact) {
        if (!r.ValidAt(now - staleness_ms)) continue;
      } else {
        const SlotId slot = scheme_.SlotOf(r.expiry);
        if (slot <= qslot || !scheme_.InWindow(slot)) continue;
      }
      if (region_filter != nullptr &&
          !region_filter->Contains(sensors_[r.sensor].location)) {
        continue;
      }
      out.agg.Add(r.value);
      out.used_readings.push_back(r);
    }
    return out;
  }
  const SlotId qslot = QuerySlot(now, staleness_ms);
  ReaderLock node_lock(node_mutex_.For(node_id), SyncSite::kNodeStripe);
  out.agg = caches_[static_cast<size_t>(node_id)].QueryNewerThan(
      scheme_, qslot, &out.slots_merged);
  return out;
}

int64_t ColrTree::CachedCount(int node_id, TimeMs now,
                              TimeMs staleness_ms) const {
  const Node& n = arena_.record(node_id);
  if (n.IsLeaf()) {
    int64_t c = 0;
    ReaderLock node_lock(node_mutex_.For(node_id), SyncSite::kNodeStripe);
    for (ReadingTable::Key key : cached_keys_[static_cast<size_t>(node_id)]) {
      const Reading* r = table_.Get(key);
      if (r != nullptr && r->ValidAt(now - staleness_ms)) ++c;
    }
    return c;
  }
  ReaderLock node_lock(node_mutex_.For(node_id), SyncSite::kNodeStripe);
  return caches_[static_cast<size_t>(node_id)].WeightNewerThan(
      scheme_, QuerySlot(now, staleness_ms));
}

std::optional<Reading> ColrTree::CachedReading(SensorId sensor) const {
  if (sensor >= sensors_.size()) return std::nullopt;
  const int leaf = leaf_of_sensor_[sensor];
  if (leaf < 0) return std::nullopt;
  ReaderLock node_lock(node_mutex_.For(leaf), SyncSite::kNodeStripe);
  const Reading* r = table_.Get(key_of_sensor_[sensor]);
  if (r == nullptr) return std::nullopt;
  return *r;
}

bool ColrTree::CachedInNewerSlot(SensorId sensor, SlotId query_slot) const {
  if (sensor >= sensors_.size()) return false;
  const int leaf = leaf_of_sensor_[sensor];
  if (leaf < 0) return false;
  ReaderLock node_lock(node_mutex_.For(leaf), SyncSite::kNodeStripe);
  const Reading* r = table_.Get(key_of_sensor_[sensor]);
  if (r == nullptr) return false;
  const SlotId slot = scheme_.SlotOf(r->expiry);
  return slot > query_slot && scheme_.InWindow(slot);
}

Status ColrTree::CheckCacheConsistency() const {
  // The exclusive epoch drains every in-flight writer (they all hold
  // the shared side), so the snapshot is coherent. First the redundancy
  // the reading table leaves: each leaf's cached-sensor list must name
  // exactly the keys of its range that hold a reading, once each, and
  // each such reading must be its key's sensor's.
  MutexLock epoch_lock(epoch_latch_, SyncSite::kEpochExclusive);
  std::vector<size_t> partition_of(table_.num_keys(), 0);
  size_t leaf_total = 0;
  for (size_t id = 0; id < arena_.size(); ++id) {
    const Node& n = arena_.record(static_cast<int>(id));
    if (!n.IsLeaf()) continue;
    std::vector<ReadingTable::Key> present;
    for (int j = n.item_begin; j < n.item_end; ++j) {
      const ReadingTable::Key key = static_cast<ReadingTable::Key>(j);
      partition_of[key] = PartitionOf(static_cast<int>(id));
      const Reading* r = table_.Get(key);
      if (r == nullptr) continue;
      if (r->sensor != sensor_order_[key]) {
        return Status::Internal("foreign reading at key " +
                                std::to_string(key));
      }
      present.push_back(key);
    }
    std::vector<ReadingTable::Key> listed = cached_keys_[id];
    std::sort(listed.begin(), listed.end());
    if (listed != present) {
      return Status::Internal(
          "cached-sensor list diverges from the cached readings at leaf " +
          std::to_string(id));
    }
    leaf_total += listed.size();
  }
  // Every cached reading is linked once, in its shard's partition, in
  // the bucket of its expiry slot, and the partitions add up.
  if (Status links = table_.CheckLinks(scheme_, partition_of); !links.ok()) {
    return links;
  }
  size_t table_total = 0;
  for (size_t p = 0; p < table_.num_partitions(); ++p) {
    table_total += table_.size(p);
  }
  if (leaf_total != table_total ||
      table_total != cached_total_.load(std::memory_order_acquire)) {
    return Status::Internal(
        "partition sizes diverge from the leaf lists or the cached count");
  }
  // For every node and every in-window slot, the cached aggregate must
  // equal the aggregate recomputed from raw cached readings under the
  // node.
  for (size_t id = 0; id < arena_.size(); ++id) {
    const Node& n = arena_.record(static_cast<int>(id));
    for (SlotId s = scheme_.oldest(); s <= scheme_.newest(); ++s) {
      Aggregate expected;
      for (int j = n.item_begin; j < n.item_end; ++j) {
        const Reading* r = table_.Get(static_cast<ReadingTable::Key>(j));
        if (r != nullptr && scheme_.SlotOf(r->expiry) == s) {
          expected.Add(r->value);
        }
      }
      const Aggregate& actual = caches_[id].Get(scheme_, s);
      if (expected.count != actual.count ||
          std::abs(expected.sum - actual.sum) > 1e-6 ||
          (expected.count > 0 &&
           (expected.min != actual.min || expected.max != actual.max))) {
        return Status::Internal("slot aggregate inconsistent at node " +
                                std::to_string(id) + " slot " +
                                std::to_string(s));
      }
    }
  }
  return Status::OK();
}

}  // namespace colr
