#ifndef COLR_CORE_READING_TABLE_H_
#define COLR_CORE_READING_TABLE_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "core/slot_cache.h"
#include "sensor/sensor.h"

namespace colr {

/// The raw-reading cache — the leaf level of the COLR-Tree cache and
/// the whole of FlatCache. At most one (the latest) reading is cached
/// per sensor (§IV-A), so the table is dense: one entry per sensor,
/// sized once from the catalog, holding the reading, its fetch
/// sequence number and intrusive prev/next links into its expiry
/// slot's fetch-ordered list. Nothing is allocated after construction.
///
/// Entries are addressed by a dense key, one per sensor; every entry
/// point ignores keys >= num_keys(). FlatCache keys by SensorId,
/// ColrTree by leaf-order position, so a leaf's entries are adjacent.
///
/// Entries are grouped into partitions (ColrTree: one per writer
/// shard; FlatCache: one). Each partition has a ring of `num_slots`
/// bucket heads, each tagged with the absolute SlotId it holds; a
/// bucket lists its readings from least to most recently fetched.
/// PeekVictim() names the reading the cache size constraint evicts
/// next — the least recently fetched one in the partition's oldest
/// occupied slot (§IV-A Insert), which is also the order a window roll
/// expunges in. Every insert and touch stamps the entry from one
/// sequence counter shared by all partitions, so comparing the
/// partitions' victims by (slot, seq) picks exactly the reading a
/// single merged list would evict.
///
/// Not internally synchronized: ColrTree guards readings, links and
/// buckets as its class comment and DESIGN.md §6 describe.
class ReadingTable {
 public:
  using Key = uint32_t;
  static constexpr Key kNoKey = std::numeric_limits<Key>::max();

  ReadingTable() = default;
  /// `num_slots`: the ring size, SlotScheme::num_slots() of the scheme
  /// every call passes.
  ReadingTable(size_t num_keys, size_t num_partitions, int num_slots);

  size_t num_keys() const { return entries_.size(); }
  size_t num_partitions() const { return partitions_.size(); }

  /// The reading cached under `key`, or nullptr.
  const Reading* Get(Key key) const;

  /// Caches `reading` under `key`, replacing the key's previous one, at
  /// the most recently fetched end of its expiry slot's bucket. Returns
  /// false, storing nothing, if the key is out of range, the reading
  /// names no sensor or the slot's ring bucket still holds another
  /// slot's readings (callers insert only in-window slots and erase
  /// slid-out readings right after each roll).
  bool Insert(size_t partition, const SlotScheme& scheme, Key key,
              const Reading& reading);

  /// Removes the reading cached under `key`. Returns true if one was.
  bool Erase(size_t partition, const SlotScheme& scheme, Key key);

  /// Marks a cached reading as fetched: it moves to the most recently
  /// fetched end of its bucket with a fresh seq.
  void Touch(size_t partition, const SlotScheme& scheme, Key key);

  /// Eviction rank of a cached reading.
  struct Victim {
    Key key = kNoKey;
    SlotId slot = 0;
    uint64_t seq = 0;
  };
  /// The partition's least recently fetched reading other than key
  /// `protect` (the reading just inserted, which the size constraint
  /// must keep) in the oldest slot holding one; nullopt if none.
  std::optional<Victim> PeekVictim(size_t partition,
                                   Key protect = kNoKey) const;

  /// Readings cached in the partition.
  size_t size(size_t partition) const { return partitions_[partition].size; }
  /// Distinct expiry slots the partition's readings occupy.
  size_t OccupiedSlots(size_t partition) const;

  /// Audits the links: each partition's buckets hold in-window slots at
  /// their ring positions and form well-linked lists of cached readings
  /// of that partition (`partition_of`, indexed by key) and that slot,
  /// with seq rising strictly from head to tail; every cached reading is
  /// linked exactly once; partition sizes match the lists.
  Status CheckLinks(const SlotScheme& scheme,
                    const std::vector<size_t>& partition_of) const;

 private:
  struct Entry {
    /// `reading.sensor` doubles as the presence flag: kInvalidSensorId
    /// while nothing is cached under the key.
    Reading reading;
    uint64_t seq = 0;
    Key prev = kNoKey;
    Key next = kNoKey;
  };
  static_assert(sizeof(Entry) == 48, "one entry per sensor: keep it small");
  struct Bucket {
    SlotId slot = std::numeric_limits<SlotId>::min();
    Key head = kNoKey;  // least recently fetched
    Key tail = kNoKey;  // most recently fetched
  };
  struct Partition {
    std::vector<Bucket> ring;
    size_t size = 0;
  };

  Bucket& BucketOf(size_t partition, const SlotScheme& scheme, SlotId slot) {
    return partitions_[partition].ring[scheme.RingIndex(slot)];
  }
  void Link(Bucket& bucket, Key key);
  void Unlink(Bucket& bucket, Key key);

  std::vector<Entry> entries_;
  std::vector<Partition> partitions_;
  AtomicCounter<uint64_t> seq_ = 0;
};

}  // namespace colr

#endif  // COLR_CORE_READING_TABLE_H_
