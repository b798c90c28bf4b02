// Sequential reference model of the tree's raw-reading cache: a plain
// std::map holding what §IV-A's rule keeps (one reading per sensor,
// capacity eviction of the least recently fetched reading in the
// oldest occupied slot, window rolls expunging slid-out slots). After
// every random insert, touch, window advance and leaf lookup the tree
// must agree with it on the cached set, on the sensor each insert
// evicted and on every node's in-window slot aggregates — at writer
// shard levels 0, 1 and 2, so the cross-shard victim choice is covered.

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "concurrent_harness.h"
#include "core/tree.h"
#include "gtest/gtest.h"
#include "sensor/network.h"

namespace colr {
namespace {

constexpr TimeMs kMin = kMsPerMinute;

class CacheModel {
 public:
  struct Entry {
    Reading reading;
    uint64_t seq = 0;
  };

  explicit CacheModel(const ColrTree& tree)
      : scheme_(tree.scheme()),
        t_max_ms_(tree.t_max_ms()),
        capacity_(tree.options().cache_capacity) {}

  struct InsertOutcome {
    bool stored = false;
    SensorId evicted = kInvalidSensorId;
  };
  /// ColrTree::InsertReading's rule.
  InsertOutcome Insert(const Reading& r) {
    const SlotId slot = scheme_.SlotOf(r.expiry);
    RollTo(slot);
    if (slot < scheme_.oldest()) return {};  // late: dropped
    entries_[r.sensor] = Entry{r, ++seq_};
    if (entries_.size() <= capacity_) return {true, kInvalidSensorId};
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first != r.sensor &&
          (victim == entries_.end() || Rank(it->second) < Rank(victim->second))) {
        victim = it;
      }
    }
    const SensorId evicted = victim->first;
    entries_.erase(victim);
    return {true, evicted};
  }
  void Touch(SensorId sensor) {
    auto it = entries_.find(sensor);
    if (it != entries_.end()) it->second.seq = ++seq_;
  }
  void AdvanceTo(TimeMs now) { RollTo(scheme_.SlotOf(now + t_max_ms_)); }

  const std::map<SensorId, Entry>& entries() const { return entries_; }
  const SlotScheme& scheme() const { return scheme_; }

 private:
  std::pair<SlotId, uint64_t> Rank(const Entry& e) const {
    return {scheme_.SlotOf(e.reading.expiry), e.seq};
  }
  void RollTo(SlotId slot) {
    if (scheme_.RollTo(slot) == 0) return;
    std::erase_if(entries_, [this](const auto& kv) {
      return scheme_.SlotOf(kv.second.reading.expiry) < scheme_.oldest();
    });
  }

  SlotScheme scheme_;
  TimeMs t_max_ms_;
  size_t capacity_;
  uint64_t seq_ = 0;
  std::map<SensorId, Entry> entries_;
};

void ExpectSameSum(double got, double want) {
  EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want)));
}

// Cached set, per-shard occupancy and every node's in-window slot
// aggregates.
void ExpectMatchesModel(const ColrTree& tree, const CacheModel& model,
                        const std::vector<int>& pos_of) {
  ASSERT_EQ(tree.scheme().newest(), model.scheme().newest());
  ASSERT_EQ(tree.CachedReadingCount(), model.entries().size());
  for (SensorId sid = 0; sid < tree.sensors().size(); ++sid) {
    const std::optional<Reading> got = tree.CachedReading(sid);
    auto it = model.entries().find(sid);
    ASSERT_EQ(got.has_value(), it != model.entries().end()) << "sensor " << sid;
    if (!got) continue;
    ASSERT_EQ(got->expiry, it->second.reading.expiry) << "sensor " << sid;
    ASSERT_EQ(got->value, it->second.reading.value) << "sensor " << sid;
  }
  const SlotScheme& scheme = tree.scheme();
  std::map<int, std::pair<size_t, std::set<SlotId>>> shards;
  for (const auto& [sid, e] : model.entries()) {
    auto& [readings, slots] = shards[tree.AncestorAtLevel(
        tree.LeafOf(sid), tree.writer_shard_level())];
    ++readings;
    slots.insert(scheme.SlotOf(e.reading.expiry));
  }
  for (const ColrTree::ShardOccupancy& o : tree.ShardOccupancies()) {
    ASSERT_EQ(o.readings, shards[o.shard_node].first) << o.shard_node;
    ASSERT_EQ(o.occupied_slots, shards[o.shard_node].second.size());
  }
  for (int id = 0; id < static_cast<int>(tree.num_nodes()); ++id) {
    const ColrTree::Node& n = tree.node(id);
    std::map<SlotId, Aggregate> want;
    for (const auto& [sid, e] : model.entries()) {
      if (pos_of[sid] >= n.item_begin && pos_of[sid] < n.item_end) {
        want[scheme.SlotOf(e.reading.expiry)].Add(e.reading.value);
      }
    }
    for (SlotId s = scheme.oldest(); s <= scheme.newest(); ++s) {
      const Aggregate& got = tree.slot_cache(id).Get(scheme, s);
      const Aggregate& exp = want[s];
      ASSERT_EQ(got.count, exp.count) << "node " << id << " slot " << s;
      if (exp.count == 0) continue;
      ASSERT_EQ(got.min, exp.min) << "node " << id << " slot " << s;
      ASSERT_EQ(got.max, exp.max) << "node " << id << " slot " << s;
      ExpectSameSum(got.sum, exp.sum);
    }
  }
}

class ReadingTableModelTest : public ::testing::TestWithParam<int> {};

TEST_P(ReadingTableModelTest, TreeCacheMatchesSequentialModel) {
  const uint64_t seed = testing::StressSeed(0x5EAD7AB1Eull);
  testing::SeedLogger seed_log(seed);
  Rng rng(seed + static_cast<uint64_t>(GetParam()));
  std::vector<SensorInfo> sensors = MakeUniformSensors(
      96, Rect::FromCorners(0, 0, 100, 100), 5 * kMin, 1.0, rng);
  for (SensorInfo& s : sensors) {
    s.expiry_ms = static_cast<TimeMs>(1 + rng.UniformInt(5)) * kMin;
  }
  ColrTree::Options opts;
  opts.cluster.fanout = 4;
  opts.cluster.leaf_capacity = 4;
  opts.slot_delta_ms = kMin;
  opts.t_max_ms = 5 * kMin;
  opts.cache_capacity = 24;
  opts.writer_shard_level = GetParam();
  ColrTree tree(sensors, opts);
  ASSERT_EQ(tree.writer_shard_level(), GetParam());
  CacheModel model(tree);

  std::vector<int> pos_of(sensors.size());
  std::vector<int> leaves;
  for (int j = 0; j < static_cast<int>(tree.sensor_order().size()); ++j) {
    pos_of[tree.sensor_order()[j]] = j;
  }
  for (int id = 0; id < static_cast<int>(tree.num_nodes()); ++id) {
    if (tree.node(id).IsLeaf()) leaves.push_back(id);
  }

  const TimeMs window = tree.scheme().num_slots() * tree.scheme().delta();
  std::map<SensorId, int> inserted_at;  // op index of the last insert
  int replaced_soon = 0, evicted_soon = 0, whole_window_rolls = 0;
  TimeMs now = 0;
  for (int op = 0; op < 2500; ++op) {
    const uint64_t kind = rng.UniformInt(100);
    if (kind < 50) {
      const SensorInfo& s = sensors[rng.UniformInt(sensors.size())];
      TimeMs ts = now;
      if (kind < 5) ts -= static_cast<TimeMs>(rng.UniformInt(window));  // late
      if (kind >= 45) ts += static_cast<TimeMs>(rng.UniformInt(3 * kMin));
      const Reading r{s.id, ts, ts + s.expiry_ms,
                      std::round(rng.Uniform(-20, 20))};
      const int64_t evictions = tree.maintenance().readings_evicted.load();
      const bool was_cached = model.entries().count(s.id) > 0;
      tree.InsertReading(r);
      const auto [stored, evicted] = model.Insert(r);
      if (stored) {
        if (was_cached && op - inserted_at[s.id] <= 4) ++replaced_soon;
        inserted_at[s.id] = op;
      }
      // The tree evicted the model's victim; the cached-set comparison
      // below shows it evicted nothing else.
      ASSERT_EQ(tree.maintenance().readings_evicted.load() - evictions,
                evicted == kInvalidSensorId ? 0 : 1) << "op " << op;
      if (evicted != kInvalidSensorId) {
        ASSERT_FALSE(tree.CachedReading(evicted))
            << "op " << op << " victim " << evicted;
        if (op - inserted_at[evicted] <= 4) ++evicted_soon;
      }
    } else if (kind < 70) {
      const SensorId sid = static_cast<SensorId>(rng.UniformInt(sensors.size()));
      tree.TouchCached(sid);
      model.Touch(sid);
    } else if (kind < 85) {
      now += static_cast<TimeMs>(rng.UniformInt(40 * 1000));
      if (kind == 70) {
        now += 3 * window;  // a roll past the whole window
        ++whole_window_rolls;
      }
      tree.AdvanceTo(now);
      model.AdvanceTo(now);
    } else {
      // Leaf lookup under both freshness rules.
      const int leaf = leaves[rng.UniformInt(leaves.size())];
      const TimeMs staleness = static_cast<TimeMs>(rng.UniformInt(8 * kMin));
      const SlotId qslot = tree.QuerySlot(now, staleness);
      for (auto rule : {ColrTree::FreshnessRule::kExact,
                        ColrTree::FreshnessRule::kSlotAligned}) {
        const ColrTree::CacheLookup got =
            tree.LookupCache(leaf, now, staleness, nullptr, rule);
        std::map<SensorId, double> want;
        Aggregate want_agg;
        for (const auto& [sid, e] : model.entries()) {
          const SlotId slot = tree.scheme().SlotOf(e.reading.expiry);
          const bool usable = rule == ColrTree::FreshnessRule::kExact
                                  ? e.reading.ValidAt(now - staleness)
                                  : slot > qslot;
          if (tree.LeafOf(sid) == leaf && usable) {
            want[sid] = e.reading.value;
            want_agg.Add(e.reading.value);
          }
        }
        std::map<SensorId, double> have;
        for (const Reading& r : got.used_readings) have[r.sensor] = r.value;
        ASSERT_EQ(have, want) << "op " << op << " leaf " << leaf;
        ASSERT_EQ(got.agg.count, want_agg.count);
        ExpectSameSum(got.agg.sum, want_agg.sum);
      }
    }
    now += static_cast<TimeMs>(rng.UniformInt(3000));
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesModel(tree, model, pos_of))
        << "op " << op;
  }
  EXPECT_GT(replaced_soon, 0);
  EXPECT_GT(evicted_soon, 0);
  EXPECT_GT(whole_window_rolls, 0);
  EXPECT_GT(tree.maintenance().late_readings_dropped.load(), 0);
  EXPECT_TRUE(tree.CheckCacheConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(ShardLevels, ReadingTableModelTest,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace colr
