#include "core/slot_cache.h"

#include <atomic>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "core/aggregate.h"
#include "core/reading_table.h"
#include "gtest/gtest.h"

namespace colr {
namespace {

// ---------------------------------------------------------------------------
// Aggregate
// ---------------------------------------------------------------------------

TEST(AggregateTest, EmptyAndAdd) {
  Aggregate a;
  EXPECT_TRUE(a.empty());
  EXPECT_DOUBLE_EQ(a.Value(AggregateKind::kCount), 0.0);
  EXPECT_DOUBLE_EQ(a.Value(AggregateKind::kAvg), 0.0);
  a.Add(3.0);
  a.Add(7.0);
  EXPECT_EQ(a.count, 2);
  EXPECT_DOUBLE_EQ(a.Value(AggregateKind::kSum), 10.0);
  EXPECT_DOUBLE_EQ(a.Value(AggregateKind::kAvg), 5.0);
  EXPECT_DOUBLE_EQ(a.Value(AggregateKind::kMin), 3.0);
  EXPECT_DOUBLE_EQ(a.Value(AggregateKind::kMax), 7.0);
}

TEST(AggregateTest, MergeMatchesSequentialAdds) {
  Rng rng(1);
  Aggregate merged, reference;
  for (int part = 0; part < 5; ++part) {
    Aggregate partial;
    for (int i = 0; i < 100; ++i) {
      const double v = rng.Gaussian(10, 5);
      partial.Add(v);
      reference.Add(v);
    }
    merged.Merge(partial);
  }
  EXPECT_EQ(merged.count, reference.count);
  EXPECT_NEAR(merged.sum, reference.sum, 1e-9);
  EXPECT_DOUBLE_EQ(merged.min, reference.min);
  EXPECT_DOUBLE_EQ(merged.max, reference.max);
}

TEST(AggregateTest, RemoveInteriorValueIsExact) {
  Aggregate a;
  a.Add(1.0);
  a.Add(5.0);
  a.Add(9.0);
  EXPECT_TRUE(a.Remove(5.0));  // strictly inside (min, max)
  EXPECT_EQ(a.count, 2);
  EXPECT_DOUBLE_EQ(a.sum, 10.0);
  EXPECT_DOUBLE_EQ(a.min, 1.0);
  EXPECT_DOUBLE_EQ(a.max, 9.0);
}

TEST(AggregateTest, RemoveExtremeFlagsRecompute) {
  Aggregate a;
  a.Add(1.0);
  a.Add(5.0);
  a.Add(9.0);
  EXPECT_FALSE(a.Remove(9.0));  // max removed: min/max now unreliable
  EXPECT_EQ(a.count, 2);        // count/sum still exact
  EXPECT_DOUBLE_EQ(a.sum, 6.0);
}

TEST(AggregateTest, RemoveLastValueClearsExactly) {
  Aggregate a;
  a.Add(4.0);
  EXPECT_TRUE(a.Remove(4.0));
  EXPECT_TRUE(a.empty());
}

TEST(AggregateTest, OfAndToString) {
  Aggregate a = Aggregate::Of(2.5);
  EXPECT_EQ(a.count, 1);
  EXPECT_NE(a.ToString().find("count=1"), std::string::npos);
  EXPECT_EQ(Aggregate{}.ToString(), "{empty}");
}

// ---------------------------------------------------------------------------
// SlotScheme
// ---------------------------------------------------------------------------

TEST(SlotSchemeTest, SlotOfFloors) {
  SlotScheme s(1000, 4000);
  EXPECT_EQ(s.SlotOf(0), 0);
  EXPECT_EQ(s.SlotOf(999), 0);
  EXPECT_EQ(s.SlotOf(1000), 1);
  EXPECT_EQ(s.SlotOf(-1), -1);
  EXPECT_EQ(s.SlotOf(-1000), -1);
  EXPECT_EQ(s.SlotOf(-1001), -2);
}

TEST(SlotSchemeTest, WindowSizing) {
  // t_max = 4000, delta = 1000 -> 4 + 1 slots.
  SlotScheme s(1000, 4000);
  EXPECT_EQ(s.num_slots(), 5);
  EXPECT_EQ(s.newest(), 4);
  EXPECT_EQ(s.oldest(), 0);
  EXPECT_TRUE(s.InWindow(0));
  EXPECT_TRUE(s.InWindow(4));
  EXPECT_FALSE(s.InWindow(5));
  EXPECT_FALSE(s.InWindow(-1));
  // Non-divisible t_max rounds up.
  SlotScheme s2(1000, 4500);
  EXPECT_EQ(s2.num_slots(), 6);
}

TEST(SlotSchemeTest, RollAdvancesOneWay) {
  SlotScheme s(100, 400);
  EXPECT_EQ(s.RollTo(3), 0);  // already covered
  EXPECT_EQ(s.RollTo(10), 6);
  EXPECT_EQ(s.newest(), 10);
  EXPECT_EQ(s.oldest(), 6);
  EXPECT_EQ(s.RollTo(5), 0);  // never rolls back
}

TEST(SlotSchemeTest, SlotEdges) {
  SlotScheme s(250, 1000);
  EXPECT_EQ(s.SlotLowerEdge(4), 1000);
  EXPECT_EQ(s.SlotUpperEdge(4), 1250);
  for (TimeMs t : {0, 249, 250, 999, 1000, 1249}) {
    const SlotId slot = s.SlotOf(t);
    EXPECT_GE(t, s.SlotLowerEdge(slot));
    EXPECT_LT(t, s.SlotUpperEdge(slot));
  }
}

// ---------------------------------------------------------------------------
// AggregateSlotCache
// ---------------------------------------------------------------------------

TEST(AggregateSlotCacheTest, AddAndGet) {
  SlotScheme s(100, 400);
  AggregateSlotCache cache(s.num_slots());
  cache.Add(s, 2, 5.0);
  cache.Add(s, 2, 7.0);
  cache.Add(s, 4, 1.0);
  EXPECT_EQ(cache.Get(s, 2).count, 2);
  EXPECT_DOUBLE_EQ(cache.Get(s, 2).sum, 12.0);
  EXPECT_EQ(cache.Get(s, 3).count, 0);
  EXPECT_EQ(cache.Get(s, 4).count, 1);
}

TEST(AggregateSlotCacheTest, LazyResetAfterRoll) {
  SlotScheme s(100, 400);
  AggregateSlotCache cache(s.num_slots());
  cache.Add(s, 0, 5.0);
  s.RollTo(5);  // slot 0 slides out; slot 5 reuses its ring position
  EXPECT_EQ(cache.Get(s, 0).count, 0);  // out of window
  EXPECT_EQ(cache.Get(s, 5).count, 0);  // stale position reads empty
  cache.Add(s, 5, 3.0);
  EXPECT_EQ(cache.Get(s, 5).count, 1);
  EXPECT_DOUBLE_EQ(cache.Get(s, 5).sum, 3.0);  // old data not leaked
}

TEST(AggregateSlotCacheTest, QueryNewerThanMergesYoungerSlotsOnly) {
  SlotScheme s(100, 500);
  AggregateSlotCache cache(s.num_slots());
  // Window covers slots 0..5.
  for (SlotId slot = 0; slot <= 5; ++slot) {
    cache.Add(s, slot, static_cast<double>(slot));
  }
  int merged = 0;
  Aggregate agg = cache.QueryNewerThan(s, 2, &merged);
  EXPECT_EQ(agg.count, 3);  // slots 3, 4, 5
  EXPECT_DOUBLE_EQ(agg.sum, 12.0);
  EXPECT_EQ(merged, 3);
  EXPECT_EQ(cache.WeightNewerThan(s, 2), 3);
  // Query slot beyond newest: nothing usable.
  EXPECT_EQ(cache.QueryNewerThan(s, 5).count, 0);
  // Query slot before the window start: everything usable.
  EXPECT_EQ(cache.QueryNewerThan(s, -10).count, 6);
}

TEST(AggregateSlotCacheTest, RemoveAndSet) {
  SlotScheme s(100, 400);
  AggregateSlotCache cache(s.num_slots());
  cache.Add(s, 1, 2.0);
  cache.Add(s, 1, 8.0);
  cache.Add(s, 1, 5.0);
  EXPECT_TRUE(cache.Remove(s, 1, 5.0));
  EXPECT_FALSE(cache.Remove(s, 1, 8.0));  // extremum: recompute needed
  Aggregate fixed;
  fixed.Add(2.0);
  cache.Set(s, 1, fixed);
  EXPECT_EQ(cache.Get(s, 1).count, 1);
  EXPECT_DOUBLE_EQ(cache.Get(s, 1).max, 2.0);
}

TEST(AggregateSlotCacheTest, RefusesOutOfWindowMutations) {
  SlotScheme s(100, 300);  // 4 slots; window 0..3
  AggregateSlotCache cache(s.num_slots());
  s.RollTo(7);  // window now 4..7
  cache.Add(s, 6, 5.0);
  ASSERT_EQ(cache.Get(s, 6).count, 1);

  // Slot 2 shares ring position 2 with in-window slot 6. A late
  // mutation for it must not re-tag the position and wipe slot 6.
  cache.Add(s, 2, 9.0);
  EXPECT_EQ(cache.Get(s, 6).count, 1);
  EXPECT_DOUBLE_EQ(cache.Get(s, 6).sum, 5.0);
  Aggregate merged;
  merged.Add(1.0);
  cache.Merge(s, 2, merged);
  cache.Set(s, 2, merged);
  EXPECT_EQ(cache.Get(s, 6).count, 1);
  EXPECT_DOUBLE_EQ(cache.Get(s, 6).sum, 5.0);
  // An out-of-window Remove has nothing to undo: reports invertible
  // (no recompute cascade) and leaves the colliding slot alone.
  EXPECT_TRUE(cache.Remove(s, 2, 9.0));
  EXPECT_EQ(cache.Get(s, 6).count, 1);
  // Slots beyond the window head are refused too (slot 8 collides
  // with in-window slot 4 at ring position 0).
  cache.Add(s, 4, 2.0);
  cache.Add(s, 8, 3.0);
  EXPECT_EQ(cache.Get(s, 4).count, 1);
  EXPECT_DOUBLE_EQ(cache.Get(s, 4).sum, 2.0);
}

// ---------------------------------------------------------------------------
// ReadingTable
// ---------------------------------------------------------------------------

Reading MakeReading(SensorId id, TimeMs ts, TimeMs expiry, double v) {
  return Reading{id, ts, expiry, v};
}

// FlatCache's keying: each reading under its sensor's id.
bool Insert(ReadingTable& table, size_t partition, const SlotScheme& s,
            const Reading& r) {
  return table.Insert(partition, s, r.sensor, r);
}

// The maintenance FlatCache and ColrTree run around a table partition:
// after a roll, erase the readings whose slot slid out, oldest first...
std::vector<SensorId> ExpungeExpired(ReadingTable& table,
                                     const SlotScheme& s) {
  std::vector<SensorId> expunged;
  while (const auto v = table.PeekVictim(0)) {
    if (v->slot >= s.oldest()) break;
    expunged.push_back(v->key);
    table.Erase(0, s, v->key);
  }
  return expunged;
}

// ...and after an insert, evict down to the capacity, never the new
// reading.
std::vector<SensorId> InsertWithCapacity(ReadingTable& table,
                                         const SlotScheme& s,
                                         const Reading& r, size_t capacity) {
  std::vector<SensorId> evicted;
  Insert(table, 0, s, r);
  while (table.size(0) > capacity) {
    const auto v = table.PeekVictim(0, r.sensor);
    if (!v) break;
    evicted.push_back(v->key);
    table.Erase(0, s, v->key);
  }
  return evicted;
}

TEST(ReadingTableTest, InsertGetReplace) {
  SlotScheme s(1000, 5000);
  ReadingTable table(100, 1, s.num_slots());
  EXPECT_TRUE(Insert(table, 0, s, MakeReading(1, 0, 2500, 10.0)));
  ASSERT_NE(table.Get(1), nullptr);
  EXPECT_DOUBLE_EQ(table.Get(1)->value, 10.0);
  // Replacing keeps one reading per sensor, moved to its new slot.
  EXPECT_TRUE(Insert(table, 0, s, MakeReading(1, 100, 3600, 20.0)));
  EXPECT_EQ(table.size(0), 1u);
  EXPECT_DOUBLE_EQ(table.Get(1)->value, 20.0);
  EXPECT_EQ(table.OccupiedSlots(0), 1u);
  EXPECT_EQ(table.PeekVictim(0)->slot, 3);
  EXPECT_EQ(table.Get(99), nullptr);
}

TEST(ReadingTableTest, RejectsSensorIdsBeyondTheCatalog) {
  SlotScheme s(1000, 5000);
  ReadingTable table(10, 1, s.num_slots());
  EXPECT_FALSE(Insert(table, 0, s, MakeReading(10, 0, 2500, 1.0)));
  EXPECT_FALSE(
      Insert(table, 0, s, MakeReading(kInvalidSensorId, 0, 2500, 1.0)));
  EXPECT_EQ(table.size(0), 0u);
  EXPECT_EQ(table.Get(10), nullptr);
  EXPECT_EQ(table.Get(kInvalidSensorId), nullptr);
  EXPECT_FALSE(table.Erase(0, s, 10));
  table.Touch(0, s, 10);
  EXPECT_FALSE(table.PeekVictim(0).has_value());
  // A reading that names no sensor cannot be told from an empty entry.
  EXPECT_FALSE(
      table.Insert(0, s, 3, MakeReading(kInvalidSensorId, 0, 2500, 1.0)));
  EXPECT_EQ(table.Get(3), nullptr);
}

// ColrTree keys readings by leaf-order position, not by sensor id.
TEST(ReadingTableTest, KeysAreIndependentOfSensorIds) {
  SlotScheme s(1000, 5000);
  ReadingTable table(10, 1, s.num_slots());
  EXPECT_TRUE(table.Insert(0, s, 4, MakeReading(7, 0, 2500, 1.0)));
  ASSERT_NE(table.Get(4), nullptr);
  EXPECT_EQ(table.Get(4)->sensor, 7u);
  EXPECT_EQ(table.Get(7), nullptr);
  EXPECT_EQ(table.PeekVictim(0)->key, 4u);
  EXPECT_TRUE(table.Erase(0, s, 4));
  EXPECT_EQ(table.size(0), 0u);
}

TEST(ReadingTableTest, CapacityEvictsOldestSlotLeastRecentlyFetched) {
  SlotScheme s(1000, 5000);
  ReadingTable table(10, 1, s.num_slots());
  // Two readings in slot 1, one in slot 3.
  InsertWithCapacity(table, s, MakeReading(1, 0, 1100, 1.0), 3);
  InsertWithCapacity(table, s, MakeReading(2, 0, 1200, 2.0), 3);
  InsertWithCapacity(table, s, MakeReading(3, 0, 3500, 3.0), 3);
  // Touch sensor 1 so sensor 2 is the LRF entry in the oldest slot.
  table.Touch(0, s, 1);
  EXPECT_EQ(InsertWithCapacity(table, s, MakeReading(4, 0, 4500, 4.0), 3),
            std::vector<SensorId>{2});
  EXPECT_EQ(table.size(0), 3u);
  EXPECT_NE(table.Get(1), nullptr);
  EXPECT_EQ(table.Get(2), nullptr);
}

TEST(ReadingTableTest, NeverEvictsJustInsertedReading) {
  SlotScheme s(1000, 5000);
  ReadingTable table(10, 1, s.num_slots());
  InsertWithCapacity(table, s, MakeReading(1, 0, 1100, 1.0), 1);
  // Sensor 2's slot is the oldest; eviction must pick sensor 1.
  EXPECT_EQ(InsertWithCapacity(table, s, MakeReading(2, 0, 900, 2.0), 1),
            std::vector<SensorId>{1});
  EXPECT_NE(table.Get(2), nullptr);
  // Nothing but the protected reading is left to evict.
  EXPECT_FALSE(table.PeekVictim(0, 2).has_value());
}

TEST(ReadingTableTest, ExpungeExpiredSlots) {
  SlotScheme s(1000, 3000);  // slots 0..3
  ReadingTable table(10, 1, s.num_slots());
  Insert(table, 0, s, MakeReading(1, 0, 500, 1.0));    // slot 0
  Insert(table, 0, s, MakeReading(2, 0, 1500, 2.0));   // slot 1
  Insert(table, 0, s, MakeReading(3, 0, 3500, 3.0));   // slot 3
  s.RollTo(5);  // window now 2..5
  EXPECT_EQ(ExpungeExpired(table, s), (std::vector<SensorId>{1, 2}));
  EXPECT_EQ(table.size(0), 1u);
  EXPECT_EQ(table.Get(1), nullptr);
  EXPECT_EQ(table.Get(2), nullptr);
  EXPECT_NE(table.Get(3), nullptr);
}

TEST(ReadingTableTest, ExpungeAfterRollPastWholeWindow) {
  SlotScheme s(1000, 3000);  // 4 slots; window 0..3
  ReadingTable table(10, 1, s.num_slots());
  Insert(table, 0, s, MakeReading(1, 0, 500, 1.0));    // slot 0
  Insert(table, 0, s, MakeReading(2, 0, 1500, 2.0));   // slot 1
  Insert(table, 0, s, MakeReading(3, 0, 3500, 3.0));   // slot 3
  // Roll more than num_slots forward in one step: every occupied slot
  // slides out, including ones whose ring position the new window
  // reuses — new slot 12 shares slot 0's position, which refuses it
  // until the slid-out readings are gone.
  s.RollTo(s.newest() + 2 * s.num_slots() + 1);
  ASSERT_EQ(s.newest(), 12);
  const Reading fresh = MakeReading(4, 0, s.SlotLowerEdge(12) + 1, 4.0);
  EXPECT_FALSE(Insert(table, 0, s, fresh));
  EXPECT_EQ(ExpungeExpired(table, s).size(), 3u);
  EXPECT_EQ(table.size(0), 0u);
  // The table is immediately usable in the new window.
  EXPECT_TRUE(Insert(table, 0, s, fresh));
  EXPECT_EQ(table.size(0), 1u);
  EXPECT_NE(table.Get(4), nullptr);
}

TEST(ReadingTableTest, ReplacementAtCapacityEvictsNothing) {
  SlotScheme s(1000, 5000);
  ReadingTable table(10, 1, s.num_slots());
  InsertWithCapacity(table, s, MakeReading(1, 0, 1100, 1.0), 2);
  InsertWithCapacity(table, s, MakeReading(2, 0, 3500, 2.0), 2);
  // Replacing sensor 1's reading (even into a different slot) keeps
  // the table at capacity: no eviction, and never of sensor 1 itself.
  EXPECT_TRUE(
      InsertWithCapacity(table, s, MakeReading(1, 100, 4500, 9.0), 2).empty());
  EXPECT_EQ(table.size(0), 2u);
  EXPECT_DOUBLE_EQ(table.Get(1)->value, 9.0);
  EXPECT_NE(table.Get(2), nullptr);
}

TEST(ReadingTableTest, Erase) {
  SlotScheme s(1000, 3000);
  ReadingTable table(10, 1, s.num_slots());
  Insert(table, 0, s, MakeReading(1, 0, 500, 1.0));
  Insert(table, 0, s, MakeReading(2, 0, 1500, 2.0));
  EXPECT_TRUE(table.Erase(0, s, 1));
  EXPECT_FALSE(table.Erase(0, s, 1));
  EXPECT_EQ(table.size(0), 1u);
  EXPECT_EQ(table.OccupiedSlots(0), 1u);
  EXPECT_EQ(table.Get(1), nullptr);
  EXPECT_NE(table.Get(2), nullptr);
}

TEST(ReadingTableTest, HoldsOneReadingPerSensor) {
  SlotScheme s(1000, 3000);
  ReadingTable table(1000, 1, s.num_slots());
  for (int round = 0; round < 2; ++round) {
    for (SensorId i = 0; i < 1000; ++i) {
      ASSERT_TRUE(Insert(table, 0, s, MakeReading(i, 0, 1500, round)));
    }
    EXPECT_EQ(table.size(0), 1000u);
  }
  EXPECT_EQ(table.OccupiedSlots(0), 1u);
}

// The seq counter is shared by all partitions, so per-partition
// victims compare by (slot, seq) into the one global LRF order.
TEST(ReadingTableTest, SharedSeqOrdersVictimsAcrossPartitions) {
  SlotScheme s(1000, 5000);
  ReadingTable table(10, 2, s.num_slots());
  Insert(table, 0, s, MakeReading(1, 0, 1100, 1.0));  // partition 0, slot 1
  Insert(table, 1, s, MakeReading(2, 0, 1200, 2.0));  // partition 1, slot 1
  Insert(table, 1, s, MakeReading(3, 0, 2500, 3.0));  // partition 1, slot 2
  table.Touch(0, s, 1);
  const auto v0 = table.PeekVictim(0);
  const auto v1 = table.PeekVictim(1);
  ASSERT_TRUE(v0 && v1);
  EXPECT_EQ(v0->key, 1u);
  EXPECT_EQ(v1->key, 2u);
  EXPECT_EQ(v0->slot, v1->slot);
  EXPECT_LT(v1->seq, v0->seq);
  EXPECT_EQ(table.OccupiedSlots(1), 2u);

  std::vector<size_t> partition_of(10, 0);
  partition_of[2] = partition_of[3] = 1;
  EXPECT_TRUE(table.CheckLinks(s, partition_of).ok());
  partition_of[3] = 0;
  EXPECT_FALSE(table.CheckLinks(s, partition_of).ok());
}

TEST(ReadingTableTest, StressAgainstModelOfSize) {
  // Property: size never exceeds capacity; Get returns the last
  // inserted reading for any live sensor; the links stay sound.
  Rng rng(9);
  SlotScheme s(500, 4000);
  ReadingTable table(200, 1, s.num_slots());
  const std::vector<size_t> partition_of(200, 0);
  std::vector<double> last_value(200, -1.0);
  TimeMs now = 0;
  for (int step = 0; step < 5000; ++step) {
    now += rng.UniformInt(200);
    const SensorId sid = static_cast<SensorId>(rng.UniformInt(200));
    const TimeMs expiry = now + 500 + rng.UniformInt(3500);
    s.RollTo(s.SlotOf(expiry));
    for (SensorId gone : ExpungeExpired(table, s)) last_value[gone] = -1.0;
    for (SensorId gone :
         InsertWithCapacity(table, s, MakeReading(sid, now, expiry, step),
                            50)) {
      last_value[gone] = -1.0;
    }
    last_value[sid] = step;
    ASSERT_LE(table.size(0), 50u);
    const Reading* got = table.Get(sid);
    ASSERT_NE(got, nullptr);
    EXPECT_DOUBLE_EQ(got->value, step);
    if (step % 500 == 0) {
      ASSERT_TRUE(table.CheckLinks(s, partition_of).ok()) << "step " << step;
    }
  }
  // Every sensor the model believes live must be present.
  for (SensorId i = 0; i < 200; ++i) {
    if (last_value[i] >= 0) {
      const Reading* r = table.Get(i);
      ASSERT_NE(r, nullptr) << "sensor " << i;
      EXPECT_DOUBLE_EQ(r->value, last_value[i]);
    } else {
      EXPECT_EQ(table.Get(i), nullptr);
    }
  }
  EXPECT_TRUE(table.CheckLinks(s, partition_of).ok());
}

// ---------------------------------------------------------------------------
// Torn-window regression: RollTo concurrent with QueryNewerThan
// ---------------------------------------------------------------------------

// Version tags are monotone per ring position and bump on every
// mutation, including the lazy re-tag to a new slot id — the property
// ColrTree's recompute-from-children relies on to detect concurrent
// slot mutation (no ABA through re-tagging).
TEST(AggregateSlotCacheTest, SlotVersionBumpsOnEveryMutation) {
  SlotScheme s(10, 30);  // 4 slots, window 0..3
  AggregateSlotCache cache(s.num_slots());

  EXPECT_EQ(cache.SlotVersion(s, 99), 0u);  // out of window: no tag
  const uint64_t v0 = cache.SlotVersion(s, 2);
  cache.Add(s, 2, 5.0);  // re-tag + add
  const uint64_t v1 = cache.SlotVersion(s, 2);
  EXPECT_GT(v1, v0);
  cache.Remove(s, 2, 5.0);
  const uint64_t v2 = cache.SlotVersion(s, 2);
  EXPECT_GT(v2, v1);
  Aggregate agg;
  agg.Add(1.0);
  cache.Set(s, 2, agg);
  const uint64_t v3 = cache.SlotVersion(s, 2);
  EXPECT_GT(v3, v2);
  // The roll re-tags position RingIndex(2) when slot 6 claims it; the
  // tag keeps growing through the identity change.
  s.RollTo(6);
  cache.Add(s, 6, 2.0);
  EXPECT_GT(cache.SlotVersion(s, 6), v3);
}

// The lookup must read the window head exactly once: with the head
// re-read per iteration, a roll concurrent with the scan merges a mix
// of slots from two window positions (or drops slots that slid out
// mid-scan). Protocol mirrors ColrTree: cache *content* only mutates
// under a lock that the reader shares, while RollTo advances the
// atomic head outside it — exactly the exposure queries have in the
// live tree, where a roll only takes the epoch latch, not every
// node's stripe.
TEST(AggregateSlotCacheTest, QueryNewerThanIsSnapshotConsistentUnderRolls) {
  SlotScheme s(10, 30);  // 4 slots
  AggregateSlotCache cache(s.num_slots());
  std::mutex content_mutex;

  // Occupy the initial window: slot k holds one value == k.
  for (SlotId k = s.oldest(); k <= s.newest(); ++k) {
    cache.Add(s, k, static_cast<double>(k));
  }

  constexpr SlotId kLastSlot = 4000;
  std::atomic<bool> done{false};
  std::thread roller([&] {
    for (SlotId next = s.newest() + 1; next <= kLastSlot; ++next) {
      s.RollTo(next);  // head moves with no lock held
      std::lock_guard<std::mutex> lock(content_mutex);
      cache.Add(s, next, static_cast<double>(next));
    }
    done.store(true, std::memory_order_release);
  });

  // Keep querying while the roller runs, and for a floor of
  // iterations regardless — on a single-core host the roller can
  // finish before this thread is scheduled at all.
  int64_t lookups = 0;
  while (!done.load(std::memory_order_acquire) || lookups < 100) {
    std::lock_guard<std::mutex> lock(content_mutex);
    int merged = 0;
    const Aggregate agg = cache.QueryNewerThan(s, -1000, &merged);
    ++lookups;
    // Valid snapshots: all four in-window slots occupied, or three
    // plus the freshly rolled-in head whose Add is still pending.
    ASSERT_GE(agg.count, s.num_slots() - 1);
    ASSERT_LE(agg.count, s.num_slots());
    ASSERT_EQ(merged, agg.count);
    // All merged values must come from ONE window position: a torn
    // scan mixes pre- and post-roll slots, whose ids (== values) are
    // more than a window apart.
    ASSERT_LE(agg.max - agg.min, static_cast<double>(s.num_slots() - 1));
    const int64_t weight = cache.WeightNewerThan(s, -1000);
    ASSERT_GE(weight, s.num_slots() - 1);
    ASSERT_LE(weight, s.num_slots());
  }
  roller.join();
  EXPECT_GT(lookups, 0);
}

}  // namespace
}  // namespace colr
