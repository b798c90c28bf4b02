#include "core/reading_table.h"

#include <string>

namespace colr {

ReadingTable::ReadingTable(size_t num_keys, size_t num_partitions,
                           int num_slots)
    : entries_(num_keys),
      partitions_(num_partitions,
                  Partition{std::vector<Bucket>(num_slots), 0}) {}

const Reading* ReadingTable::Get(Key key) const {
  if (key >= entries_.size()) return nullptr;
  const Entry& e = entries_[key];
  return e.reading.sensor != kInvalidSensorId ? &e.reading : nullptr;
}

bool ReadingTable::Insert(size_t partition, const SlotScheme& scheme, Key key,
                          const Reading& reading) {
  const bool named = reading.sensor != kInvalidSensorId;
  if (key >= entries_.size() || !named) return false;
  const SlotId slot = scheme.SlotOf(reading.expiry);
  Bucket& bucket = BucketOf(partition, scheme, slot);
  if (bucket.head != kNoKey && bucket.slot != slot) return false;
  Erase(partition, scheme, key);
  Entry& e = entries_[key];
  e.reading = reading;
  e.seq = seq_.Add(1);
  bucket.slot = slot;
  Link(bucket, key);
  ++partitions_[partition].size;
  return true;
}

bool ReadingTable::Erase(size_t partition, const SlotScheme& scheme,
                         Key key) {
  const Reading* r = Get(key);
  if (r == nullptr) return false;
  Unlink(BucketOf(partition, scheme, scheme.SlotOf(r->expiry)), key);
  entries_[key].reading.sensor = kInvalidSensorId;
  --partitions_[partition].size;
  return true;
}

void ReadingTable::Touch(size_t partition, const SlotScheme& scheme,
                         Key key) {
  const Reading* r = Get(key);
  if (r == nullptr) return;
  Bucket& bucket = BucketOf(partition, scheme, scheme.SlotOf(r->expiry));
  Unlink(bucket, key);
  Link(bucket, key);
  entries_[key].seq = seq_.Add(1);
}

std::optional<ReadingTable::Victim> ReadingTable::PeekVictim(
    size_t partition, Key protect) const {
  std::optional<Victim> victim;
  for (const Bucket& b : partitions_[partition].ring) {
    // The bucket's least recently fetched reading other than `protect`.
    Key k = b.head;
    if (k != kNoKey && k == protect) k = entries_[k].next;
    if (k == kNoKey || (victim && victim->slot < b.slot)) continue;
    victim = Victim{k, b.slot, entries_[k].seq};
  }
  return victim;
}

size_t ReadingTable::OccupiedSlots(size_t partition) const {
  size_t n = 0;
  for (const Bucket& b : partitions_[partition].ring) n += b.head != kNoKey;
  return n;
}

void ReadingTable::Link(Bucket& bucket, Key key) {
  Entry& e = entries_[key];
  e.prev = bucket.tail;
  e.next = kNoKey;
  if (bucket.tail != kNoKey) {
    entries_[bucket.tail].next = key;
  } else {
    bucket.head = key;
  }
  bucket.tail = key;
}

void ReadingTable::Unlink(Bucket& bucket, Key key) {
  Entry& e = entries_[key];
  if (e.prev != kNoKey) {
    entries_[e.prev].next = e.next;
  } else {
    bucket.head = e.next;
  }
  if (e.next != kNoKey) {
    entries_[e.next].prev = e.prev;
  } else {
    bucket.tail = e.prev;
  }
  e.prev = kNoKey;
  e.next = kNoKey;
}

Status ReadingTable::CheckLinks(const SlotScheme& scheme,
                                const std::vector<size_t>& partition_of) const {
  auto broken = [](size_t p, const std::string& what) {
    return Status::Internal("reading table partition " + std::to_string(p) +
                            ": " + what);
  };
  std::vector<bool> linked(entries_.size(), false);
  for (size_t p = 0; p < partitions_.size(); ++p) {
    size_t count = 0;
    for (size_t i = 0; i < partitions_[p].ring.size(); ++i) {
      const Bucket& b = partitions_[p].ring[i];
      if (b.head != kNoKey &&
          (!scheme.InWindow(b.slot) ||
           static_cast<size_t>(scheme.RingIndex(b.slot)) != i)) {
        return broken(p, "misplaced bucket of slot " + std::to_string(b.slot));
      }
      Key prev = kNoKey;
      for (Key k = b.head; k != kNoKey; prev = k, k = entries_[k].next) {
        if (k >= entries_.size() || linked[k] || Get(k) == nullptr ||
            entries_[k].prev != prev || partition_of[k] != p ||
            scheme.SlotOf(entries_[k].reading.expiry) != b.slot ||
            (prev != kNoKey && entries_[k].seq <= entries_[prev].seq)) {
          return broken(p, "misplaced or misordered key " + std::to_string(k));
        }
        linked[k] = true;
        ++count;
      }
      if (b.tail != prev) return broken(p, "stale bucket tail");
    }
    if (count != partitions_[p].size) {
      return broken(p, "size diverges from its lists");
    }
  }
  for (Key k = 0; k < entries_.size(); ++k) {
    if (Get(k) != nullptr && !linked[k]) {
      return Status::Internal("cached key " + std::to_string(k) +
                              " is in no bucket");
    }
  }
  return Status::OK();
}

}  // namespace colr
