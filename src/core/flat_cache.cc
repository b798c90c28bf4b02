#include "core/flat_cache.h"

namespace colr {

FlatCache::Lookup FlatCache::Query(const QueryRegion& region, TimeMs now,
                                   TimeMs staleness_ms) {
  Lookup out;
  out.scanned = static_cast<int64_t>(sensors_->size());
  for (const SensorInfo& s : *sensors_) {
    if (!region.Contains(s.location)) continue;
    const Reading* r = table_.Get(s.id);
    if (r != nullptr && r->ValidAt(now - staleness_ms)) {
      out.cached.push_back(*r);
      table_.Touch(0, scheme_, s.id);
    } else {
      out.missing.push_back(s.id);
    }
  }
  return out;
}

void FlatCache::Insert(const Reading& reading) {
  if (reading.sensor >= table_.num_keys()) return;
  const SlotId slot = scheme_.SlotOf(reading.expiry);
  if (scheme_.RollTo(slot) > 0) ExpungeExpired();
  if (slot < scheme_.oldest()) return;
  table_.Insert(0, scheme_, reading.sensor, reading);
  while (capacity_ > 0 && table_.size(0) > capacity_) {
    const std::optional<ReadingTable::Victim> victim =
        table_.PeekVictim(0, reading.sensor);
    if (!victim) break;
    table_.Erase(0, scheme_, victim->key);
  }
}

void FlatCache::AdvanceTo(TimeMs now) {
  const SlotId needed =
      scheme_.SlotOf(now) + scheme_.num_slots() - 1;
  if (scheme_.RollTo(needed) > 0) ExpungeExpired();
}

void FlatCache::ExpungeExpired() {
  while (const std::optional<ReadingTable::Victim> victim =
             table_.PeekVictim(0)) {
    if (victim->slot >= scheme_.oldest()) return;
    table_.Erase(0, scheme_, victim->key);
  }
}

}  // namespace colr
