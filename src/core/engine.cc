#include "core/engine.h"

#include <algorithm>
#include <map>
#include <utility>

namespace colr {

void QueryStats::MergeCounters(const QueryStats& other) {
#define COLR_QUERY_COUNTER(type, name) name += other.name;
#include "core/query_counters.inc"
}

const char* ColrEngine::ModeName(Mode mode) {
  switch (mode) {
    case Mode::kRTree: return "rtree";
    case Mode::kFlatCache: return "flat-cache";
    case Mode::kHierCache: return "hier-cache";
    case Mode::kColr: return "colr-tree";
  }
  return "unknown";
}

namespace {

// Adds a reading value to a group's histogram per the query's bucket
// configuration (§I: per-group value distributions).
void AddToHistogram(const Query& query, double value, GroupResult* group) {
  if (query.histogram_buckets <= 0) return;
  if (group->histogram.empty()) {
    group->histogram.assign(query.histogram_buckets, 0);
  }
  const double lo = query.histogram_lo;
  const double hi = query.histogram_hi;
  int bucket = 0;
  if (hi > lo) {
    bucket = static_cast<int>((value - lo) / (hi - lo) *
                              query.histogram_buckets);
  }
  bucket = std::clamp(bucket, 0, query.histogram_buckets - 1);
  ++group->histogram[bucket];
}

}  // namespace

ColrEngine::ColrEngine(ColrTree* tree, SensorNetwork* network,
                       Options options)
    : tree_(tree),
      network_(network),
      scheduler_(std::make_unique<ProbeScheduler>(network, options.probe)),
      clock_(network->clock()),
      options_(options),
      rng_(options.seed) {
  if (options_.mode == Mode::kFlatCache) {
    flat_ = std::make_unique<FlatCache>(
        &network_->sensors(), tree_->scheme().delta(),
        tree_->scheme().delta() * (tree_->scheme().num_slots() - 1),
        tree_->options().cache_capacity);
  }
  if (options_.track_availability) {
    tracker_ = std::make_unique<AvailabilityTracker>(network_->sensors());
    last_availability_refresh_ms_.store(clock_->NowMs(),
                                        std::memory_order_relaxed);
  }
}

std::vector<Reading> ColrEngine::ProbeBatch(const std::vector<SensorId>& ids,
                                            ProbeAccounting* acct) {
  Stopwatch watch;
  ProbeScheduler::BatchOutcome batch = scheduler_->ProbeBatch(ids);
  acct->sim_wall_ms += watch.ElapsedMillis();
  acct->attempted += static_cast<int64_t>(batch.issued_ids.size());
  acct->succeeded += static_cast<int64_t>(batch.readings.size());
  acct->coalesced += static_cast<int64_t>(batch.coalesced);
  acct->reused += static_cast<int64_t>(batch.reused);
  acct->shed += static_cast<int64_t>(batch.shed);
  acct->total_latency_ms += batch.latency_ms;
  if (tracker_ != nullptr) {
    // Availability evidence covers exactly the probes *this query*
    // issued (coalesced/reused requests were someone else's probe —
    // recording them again would double-weight the EWMA). The issued
    // readings are the first issued_readings entries, in request
    // order, so one forward walk gives each issued occurrence its own
    // outcome (a duplicated id records one outcome per occurrence).
    size_t next = 0;
    for (SensorId id : batch.issued_ids) {
      const bool ok = next < batch.issued_readings &&
                      batch.readings[next].sensor == id;
      if (ok) ++next;
      tracker_->Record(id, ok);
    }
  }
  return std::move(batch.readings);
}

void ColrEngine::FinishProbeStats(const ProbeAccounting& acct,
                                  double elapsed_ms, QueryStats* stats) {
  stats->sensors_probed = acct.attempted;
  stats->probe_successes = acct.succeeded;
  stats->probes_coalesced = acct.coalesced;
  stats->probes_reused = acct.reused;
  stats->probes_shed = acct.shed;
  stats->collection_latency_ms = acct.total_latency_ms;
  const double processing = elapsed_ms - acct.sim_wall_ms;
  // elapsed covers every interval sim_wall accumulated, so a negative
  // difference means the network wall-time accounting double-counted.
  // Surface the skew (tests assert it stays zero) instead of silently
  // clamping it away.
  if (processing < 0.0) stats->processing_skew_ms = -processing;
  stats->processing_ms = std::max(0.0, processing);
}

QueryResult ColrEngine::Execute(const Query& query) {
  ExecutionContext ctx(&rng_);
  return Execute(query, ctx);
}

QueryResult ColrEngine::Execute(const Query& query, ExecutionContext& ctx) {
  const TimeMs now = clock_->NowMs();
  QueryResult result;
  switch (options_.mode) {
    case Mode::kColr:
      result = query.sample_size > 0 ? ExecuteColr(query, now, ctx.rng())
                                     : ExecuteRange(query, now, true);
      break;
    case Mode::kHierCache:
      result = ExecuteRange(query, now, true);
      break;
    case Mode::kRTree:
      result = ExecuteRange(query, now, false);
      break;
    case Mode::kFlatCache:
      result = ExecuteFlat(query, now);
      break;
  }
  FinishQuery(query, now, &result);
  return result;
}

QueryStats ColrEngine::cumulative() const {
  QueryStats s;
#define COLR_QUERY_COUNTER(type, name) s.name = cumulative_.name.load();
#include "core/query_counters.inc"
  return s;
}

void ColrEngine::ResetCumulative() {
#define COLR_QUERY_COUNTER(type, name) cumulative_.name.store(0);
#include "core/query_counters.inc"
}

void ColrEngine::FinishQuery(const Query& query, TimeMs now,
                             QueryResult* result) {
  if (options_.fill_region_count) {
    result->stats.region_sensor_count =
        tree_->CountSensorsInRegion(query.region.bbox);
  }
  if (tracker_ != nullptr) {
    // Clock-driven refresh: when a full interval has elapsed on the
    // engine's clock, the CAS elects this query to push the tracker's
    // estimates into the tree. Concurrent finishers that lose the CAS
    // skip — one refresh per due interval, regardless of query rate.
    const TimeMs interval = std::max<TimeMs>(1, options_.availability_refresh_ms);
    TimeMs last = last_availability_refresh_ms_.load(std::memory_order_relaxed);
    if (now - last >= interval &&
        last_availability_refresh_ms_.compare_exchange_strong(
            last, now, std::memory_order_relaxed)) {
      tree_->RefreshAvailability(tracker_->estimates());
    }
  }
  const QueryStats& s = result->stats;
#define COLR_QUERY_COUNTER(type, name) cumulative_.name += s.name;
#include "core/query_counters.inc"
}

// ---------------------------------------------------------------------------
// Full COLR-Tree: layered sampling over the slot-cached index.
// ---------------------------------------------------------------------------

QueryResult ColrEngine::ExecuteColr(const Query& query, TimeMs now,
                                    Rng& rng) {
  QueryResult result;
  Stopwatch watch;

  LayeredSampler::Options sopts;
  sopts.target = query.sample_size;
  sopts.terminal_level = query.cluster_level;
  sopts.use_cache = options_.sampling_use_cache;
  sopts.oversample = options_.oversample;
  sopts.redistribute = options_.redistribute;

  ProbeAccounting acct;
  auto probe_fn = [this, &acct](const std::vector<SensorId>& ids) {
    return ProbeBatch(ids, &acct);
  };

  LayeredSampler::Result sres = LayeredSampler::Run(
      *tree_, query.region, now, query.staleness_ms, sopts, rng, probe_fn);

  // Assemble multi-resolution groups: each terminal contributes to its
  // ancestor at the query's cluster level.
  std::map<int, GroupResult> groups;
  for (const LayeredSampler::Terminal& t : sres.terminals) {
    const int gid = tree_->AncestorAtLevel(t.node_id, query.cluster_level);
    GroupResult& g = groups[gid];
    if (g.node_id < 0) {
      g.node_id = gid;
      g.bbox = tree_->node(gid).bbox;
      g.weight = tree_->node(gid).Weight();
    }
    g.agg.Merge(t.cached_agg);
    for (const Reading& r : t.collected) {
      g.agg.Add(r.value);
      AddToHistogram(query, r.value, &g);
    }

    // Instrumentation + cache bookkeeping. LookupCache copied the used
    // readings out under the leaf's node stripe (cached_readings), so
    // no reading-table pointers are dereferenced here.
    for (const Reading& r : t.cached_readings) {
      if (query.return_readings) {
        result.served_from_cache.push_back(r);
      }
      AddToHistogram(query, r.value, &g);
      tree_->TouchCached(r.sensor);
    }
    result.stats.cache_readings_used +=
        t.node_id >= 0 && tree_->node(t.node_id).IsLeaf() ? t.cached_count
                                                          : 0;
    result.stats.cached_agg_readings +=
        t.node_id >= 0 && !tree_->node(t.node_id).IsLeaf() ? t.cached_count
                                                           : 0;
    result.stats.slots_merged += t.cached_slots_merged;
    result.stats.result_size +=
        static_cast<int64_t>(t.collected.size()) + t.cached_count;

    TerminalRecord rec;
    rec.node_id = t.node_id;
    rec.target = t.target;
    rec.probes_attempted = t.probes_attempted;
    rec.probes_succeeded = static_cast<int>(t.collected.size());
    rec.cached_used = t.cached_count;
    result.stats.terminals.push_back(rec);

    result.collected.insert(result.collected.end(), t.collected.begin(),
                            t.collected.end());
  }
  for (auto& [gid, g] : groups) result.groups.push_back(std::move(g));

  // Populate the cache with everything we just collected (the whole
  // point of coupling collection with the index).
  for (const Reading& r : result.collected) tree_->InsertReading(r);

  result.stats.nodes_traversed = sres.nodes_traversed;
  result.stats.internal_nodes_traversed = sres.internal_nodes_traversed;
  result.stats.cached_nodes_accessed = sres.cached_nodes_accessed;
  FinishProbeStats(acct, watch.ElapsedMillis(), &result.stats);
  return result;
}

// ---------------------------------------------------------------------------
// Range lookup without sampling: kHierCache (slot caches on) and
// kRTree (pure index, probe everything).
// ---------------------------------------------------------------------------

QueryResult ColrEngine::ExecuteRange(const Query& query, TimeMs now,
                                     bool use_cache) {
  QueryResult result;
  Stopwatch watch;

  std::map<int, GroupResult> groups;
  auto group_for = [&](int node_id) -> GroupResult& {
    const int gid = tree_->AncestorAtLevel(node_id, query.cluster_level);
    GroupResult& g = groups[gid];
    if (g.node_id < 0) {
      g.node_id = gid;
      g.bbox = tree_->node(gid).bbox;
      g.weight = tree_->node(gid).Weight();
    }
    return g;
  };

  ProbeAccounting acct;
  std::vector<SensorId> touched;
  // Query-wide ≤1-probe guard: the per-leaf batches below are built
  // from disjoint leaf memberships today, but the contract is the
  // paper's, not the tree's — a sensor reachable under two visited
  // groups must still be probed (and counted) once. Sensors served
  // from cache are marked too, so they are never probed. The deduper
  // and the leaf probe buffer are reused across queries so the probe
  // path allocates nothing per probed sensor. They are per thread: a
  // thread runs one query at a time (ThreadPool::ParallelFor drains
  // only its own chunks on the caller).
  thread_local ProbeDeduper dedup;
  thread_local std::vector<SensorId> to_probe;
  dedup.Begin(tree_->sensors().size());

  if (tree_->root() >= 0 &&
      query.region.Intersects(tree_->node(tree_->root()).bbox)) {
    std::vector<int> stack{tree_->root()};
    std::vector<int> hits(
        static_cast<size_t>(tree_->arena().max_fanout()));
    while (!stack.empty()) {
      const int id = stack.back();
      stack.pop_back();
      const ColrTree::Node& n = tree_->node(id);
      ++result.stats.nodes_traversed;
      if (!n.IsLeaf()) ++result.stats.internal_nodes_traversed;

      const bool contained = query.region.Contains(n.bbox);
      if (use_cache && contained && !n.IsLeaf() &&
          !query.return_readings && query.histogram_buckets <= 0 &&
          n.level >= query.cluster_level) {
        // Early termination when the subtree is fully answerable from
        // its slot cache (§IV-B Lookup). Only at or below the result
        // granularity, so multi-resolution groups stay distinct.
        const int64_t cached =
            tree_->CachedCount(id, now, query.staleness_ms);
        if (cached >= n.Weight()) {
          ColrTree::CacheLookup lookup =
              tree_->LookupCache(id, now, query.staleness_ms);
          GroupResult& g = group_for(id);
          g.agg.Merge(lookup.agg);
          ++result.stats.cached_nodes_accessed;
          result.stats.cached_agg_readings += lookup.agg.count;
          result.stats.slots_merged += lookup.slots_merged;
          result.stats.result_size += lookup.agg.count;
          continue;
        }
      }

      if (!n.IsLeaf()) {
        // Vectorized bbox prefilter over the node's contiguous child
        // block (SoA MBR scan). A polygonal region refines each hit
        // exactly as QueryRegion::Intersects would — its bbox precheck
        // is what the kernel just computed.
        const int k = tree_->arena().OverlapChildren(id, query.region.bbox,
                                                     hits.data());
        for (int t = 0; t < k; ++t) {
          const int c = hits[t];
          if (query.region.polygon &&
              !query.region.polygon->Intersects(tree_->node(c).bbox)) {
            continue;
          }
          stack.push_back(c);
        }
        continue;
      }

      // Leaf: serve from cache what we can, probe the rest.
      GroupResult& g = group_for(id);
      if (use_cache) {
        const bool partial = !contained;
        Rect filter = query.region.bbox;
        // Slot-aligned admission: sensors whose cached reading sits in
        // the query slot or older are re-probed (and thereby
        // refreshed), so hot subtrees converge to full slot-aligned
        // coverage and the early-termination test above can fire.
        ColrTree::CacheLookup lookup = tree_->LookupCache(
            id, now, query.staleness_ms, partial ? &filter : nullptr,
            ColrTree::FreshnessRule::kSlotAligned);
        int64_t served = 0;
        for (const Reading& cached_reading : lookup.used_readings) {
          const SensorId sid = cached_reading.sensor;
          if (query.region.polygon &&
              !query.region.Contains(tree_->sensor(sid).location)) {
            continue;
          }
          ++served;
          dedup.MarkServed(sid);
          g.agg.Add(cached_reading.value);
          AddToHistogram(query, cached_reading.value, &g);
          touched.push_back(sid);
          if (query.return_readings) {
            result.served_from_cache.push_back(cached_reading);
          }
        }
        if (served > 0) ++result.stats.cached_nodes_accessed;
        result.stats.cache_readings_used += served;
        result.stats.result_size += served;
      }
      to_probe.clear();
      tree_->SensorsUnderInRegion(id, query.region.bbox, &to_probe);
      size_t admitted = 0;
      for (SensorId sid : to_probe) {
        if (query.region.polygon &&
            !query.region.Contains(tree_->sensor(sid).location)) {
          continue;
        }
        if (dedup.Admit(sid)) to_probe[admitted++] = sid;
      }
      to_probe.resize(admitted);
      if (!to_probe.empty()) {
        std::vector<Reading> readings = ProbeBatch(to_probe, &acct);
        for (const Reading& r : readings) {
          g.agg.Add(r.value);
          AddToHistogram(query, r.value, &g);
        }
        result.stats.result_size += static_cast<int64_t>(readings.size());
        result.collected.insert(result.collected.end(), readings.begin(),
                                readings.end());
      }
    }
  }

  for (SensorId sid : touched) tree_->TouchCached(sid);
  if (use_cache) {
    for (const Reading& r : result.collected) tree_->InsertReading(r);
  }
  // Every visited group is reported, even when all of its probes
  // failed and no cached reading contributed: the group's node_id,
  // bbox and weight still tell the client the cluster exists (the same
  // contract as ExecuteColr, which emits every sampled terminal's
  // group unconditionally — an all-sensors-unavailable leaf yields an
  // empty aggregate, not a missing group).
  for (auto& [gid, g] : groups) result.groups.push_back(g);

  FinishProbeStats(acct, watch.ElapsedMillis(), &result.stats);
  return result;
}

// ---------------------------------------------------------------------------
// Flat cache baseline: full catalog scan per query.
// ---------------------------------------------------------------------------

QueryResult ColrEngine::ExecuteFlat(const Query& query, TimeMs now) {
  QueryResult result;
  Stopwatch watch;

  FlatCache::Lookup lookup;
  {
    MutexLock lock(flat_mutex_, SyncSite::kEngineFlat);
    lookup = flat_->Query(query.region, now, query.staleness_ms);
  }
  ProbeAccounting acct;
  std::vector<Reading> probed = ProbeBatch(lookup.missing, &acct);

  GroupResult g;
  g.node_id = -1;
  g.bbox = query.region.bbox;
  if (query.return_readings) result.served_from_cache = lookup.cached;
  for (const Reading& r : lookup.cached) {
    g.agg.Add(r.value);
    AddToHistogram(query, r.value, &g);
  }
  for (const Reading& r : probed) {
    g.agg.Add(r.value);
    AddToHistogram(query, r.value, &g);
  }
  g.weight = static_cast<int>(lookup.cached.size() + lookup.missing.size());
  result.groups.push_back(std::move(g));

  {
    MutexLock lock(flat_mutex_, SyncSite::kEngineFlat);
    for (const Reading& r : probed) flat_->Insert(r);
  }
  result.collected = std::move(probed);

  result.stats.cache_readings_used =
      static_cast<int64_t>(lookup.cached.size());
  result.stats.result_size =
      static_cast<int64_t>(lookup.cached.size() + result.collected.size());
  FinishProbeStats(acct, watch.ElapsedMillis(), &result.stats);
  return result;
}

}  // namespace colr
