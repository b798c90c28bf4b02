#ifndef COLR_CORE_READING_STORE_H_
#define COLR_CORE_READING_STORE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/slot_cache.h"
#include "sensor/sensor.h"

namespace colr {

/// Store of raw cached sensor readings — the leaf level of the
/// COLR-Tree cache. At most one (the latest) reading is cached per
/// sensor. The store enforces the portal-wide cache size constraint
/// (Fig. 5 sweeps it over 16–32 % of all sensors) with the paper's
/// replacement policy: evict the least recently *fetched* readings
/// lying in the oldest occupied slot (§IV-A Insert), the same order in
/// which entries would be expunged by a window slide.
///
/// Each mutation reports what happened so the tree can run the
/// equivalent of the paper's slot insert/delete triggers (propagate
/// aggregate updates to ancestors).
///
/// Every insert and touch stamps the entry with a monotonically
/// increasing fetch sequence number. A standalone store (FlatCache,
/// tests) uses its own counter; ColrTree gives its per-shard stores
/// one shared counter (set_sequence_source), which totally orders
/// fetches *across* stores — PeekEvictionCandidateInfo exposes
/// (slot, seq) so the owner can pick the exact global
/// least-recently-fetched victim by comparing per-store candidates.
///
/// Not internally synchronized: ColrTree mutates each store under its
/// shard's stripe (plus the shared epoch) and walks stores stripeless
/// only under the exclusive epoch — a runtime-keyed contract the
/// thread-safety analysis cannot express, carried by the DESIGN.md §6
/// lock-to-data table and the TSan suites instead.
class ReadingStore {
 public:
  explicit ReadingStore(size_t capacity = 0) : capacity_(capacity) {}

  /// Entry count. Readable without the owner's store lock: the value
  /// is published atomically at the end of every mutation, so a
  /// lock-free reader sees some recent size (and always its own
  /// thread's latest mutation) — what ColrTree's capacity fast path
  /// needs.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  struct InsertOutcome {
    /// The previously cached reading for this sensor, if replaced.
    bool replaced = false;
    Reading old_reading;
    /// Readings evicted to satisfy the capacity constraint (never
    /// includes the inserted sensor's own old reading).
    std::vector<Reading> evicted;
  };

  /// Inserts (or replaces) the cached reading for a sensor, bucketing
  /// it by its expiry slot, then enforces the capacity constraint.
  InsertOutcome Insert(const SlotScheme& scheme, const Reading& reading);

  /// Insert without enforcing the capacity constraint. The caller is
  /// responsible for bringing the store back under capacity via
  /// PeekEvictionCandidate() + Erase(). ColrTree's sharded write path
  /// uses this split so each eviction can be performed under the
  /// *victim's* shard lock (aggregate propagation must not race the
  /// victim's own writers), while single-threaded callers keep using
  /// Insert().
  InsertOutcome InsertWithoutEviction(const SlotScheme& scheme,
                                      const Reading& reading);

  /// Replaces the fetch-sequence counter with an external one shared
  /// by several stores (ColrTree's per-shard stores). Call before any
  /// insert; the owner must serialize each store's mutations as usual
  /// (the counter itself is atomic).
  void set_sequence_source(std::atomic<uint64_t>* seq) { seq_ = seq; }

  /// The reading the capacity constraint would evict next: the least
  /// recently fetched entry in the oldest occupied slot, skipping
  /// `protect` (the sensor whose reading was just inserted) exactly
  /// like Insert's eviction loop. Returns nullopt when the store is
  /// empty or only `protect` remains. Does not check capacity — the
  /// caller decides whether an eviction is due.
  std::optional<Reading> PeekEvictionCandidate(SensorId protect) const;

  /// PeekEvictionCandidate plus the candidate's global eviction rank:
  /// its slot and fetch sequence number. Candidates from stores
  /// sharing one sequence source compare by (slot, seq) — the exact
  /// order a single merged store would evict in.
  struct EvictionCandidate {
    Reading reading;
    SlotId slot = 0;
    uint64_t seq = 0;
  };
  std::optional<EvictionCandidate> PeekEvictionCandidateInfo(
      SensorId protect) const;

  /// Marks a cached reading as fetched (moves it to the
  /// most-recently-fetched position within its slot list).
  void Touch(SensorId sensor);

  /// Returns the cached reading for a sensor, or nullptr.
  const Reading* Get(SensorId sensor) const;

  /// Removes and returns readings whose expiry slot slid out of the
  /// window (slots older than scheme.oldest()). The paper's roll
  /// trigger, applied lazily after the scheme advances.
  std::vector<Reading> ExpungeExpiredSlots(const SlotScheme& scheme);

  /// Drops a specific sensor's cached reading (used by tests and the
  /// relational cross-check). Returns true if present.
  bool Erase(SensorId sensor);

  /// Number of distinct occupied expiry slots. Unlike size() this
  /// reads the slot map, so the caller must hold the owner's store
  /// lock (ColrTree: the shard's writer stripe). Diagnostics input
  /// for the writer-scaling sweep's shard-balance report.
  size_t OccupiedSlots() const;

  void Clear();

 private:
  struct Entry {
    Reading reading;
    SlotId slot = 0;
    /// Fetch stamp from the sequence source; list order within a slot
    /// equals seq order (both follow the owner's mutation order).
    uint64_t seq = 0;
    /// Position in slots_[slot]; front = least recently fetched.
    std::list<SensorId>::iterator lru_it;
  };

  void Unlink(std::unordered_map<SensorId, Entry>::iterator it);
  void PublishSize() {
    size_.store(entries_.size(), std::memory_order_release);
  }
  uint64_t NextSeq() {
    return seq_->fetch_add(1, std::memory_order_relaxed) + 1;
  }

  size_t capacity_;
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> own_seq_{0};
  std::atomic<uint64_t>* seq_ = &own_seq_;
  std::unordered_map<SensorId, Entry> entries_;
  /// slot -> sensors cached in that slot, ordered by last fetch time
  /// (front = least recently fetched). Ordered map so the oldest
  /// occupied slot is found in O(log #occupied-slots).
  std::map<SlotId, std::list<SensorId>> slots_;
};

}  // namespace colr

#endif  // COLR_CORE_READING_STORE_H_
