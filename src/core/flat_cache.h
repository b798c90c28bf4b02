#ifndef COLR_CORE_FLAT_CACHE_H_
#define COLR_CORE_FLAT_CACHE_H_

#include <vector>

#include "core/query.h"
#include "core/reading_table.h"
#include "core/slot_cache.h"
#include "sensor/sensor.h"

namespace colr {

/// The "flat cache" baseline of §VII-C: a collection-aware cache of
/// raw sensor readings with no index and no aggregates. Every query
/// scans the entire sensor catalog, serves what it can from cached
/// fresh readings, and reports the remaining in-region sensors for
/// probing. Shares the reading table, the slot-based expiry machinery
/// and the cache size constraint with COLR-Tree so the comparison
/// isolates the effect of indexing + aggregate caching + sampling.
class FlatCache {
 public:
  /// Caches readings of the catalog's sensors (ids below its size at
  /// construction), at most `capacity` of them; 0 = unbounded.
  FlatCache(const std::vector<SensorInfo>* sensors, TimeMs slot_delta_ms,
            TimeMs t_max_ms, size_t capacity)
      : sensors_(sensors),
        scheme_(slot_delta_ms, t_max_ms),
        capacity_(capacity),
        table_(sensors->size(), 1, scheme_.num_slots()) {}

  struct Lookup {
    /// Cached readings satisfying region + freshness.
    std::vector<Reading> cached;
    /// In-region sensors with no usable cached reading (to probe).
    std::vector<SensorId> missing;
    /// Sensors examined (always the full catalog — that is the point).
    int64_t scanned = 0;
  };

  Lookup Query(const QueryRegion& region, TimeMs now, TimeMs staleness_ms);

  /// Caches a collected reading, rolling the window as needed and
  /// evicting under the size constraint. A reading whose expiry slot
  /// already left the window is dropped: no query can use it, and at
  /// capacity it would evict a live reading.
  void Insert(const Reading& reading);

  void AdvanceTo(TimeMs now);

  size_t size() const { return table_.size(0); }

 private:
  /// Erases the readings whose slot slid out of the window.
  void ExpungeExpired();

  const std::vector<SensorInfo>* sensors_;
  SlotScheme scheme_;
  size_t capacity_;
  ReadingTable table_;  // one partition, keyed by SensorId
};

}  // namespace colr

#endif  // COLR_CORE_FLAT_CACHE_H_
