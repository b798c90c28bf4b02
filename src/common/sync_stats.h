#ifndef COLR_COMMON_SYNC_STATS_H_
#define COLR_COMMON_SYNC_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "common/lock_rank.h"

namespace colr {

/// Contention instrumentation for the lock hierarchy in sync.h
/// (DESIGN.md §6 "Sync-stats model"). Every named lock *site* — a
/// (lock, acquisition-mode) pair from lock_order.inc — gets per-site
/// counters: acquisitions, contended acquisitions (the fast try_lock
/// missed), total and max wait nanoseconds, plus a coarse log2 wait
/// histogram. The counters answer the question qps alone cannot:
/// *which* lock burns the time when scaling flattens. The guards in
/// sync.h (MutexLock / ReaderLock) record every site except
/// kStatsRegistry, the registry's own lock.
///
/// Cost model: recording is off by default and a site-naming guard
/// then compiles down to a relaxed load + branch around a plain
/// lock(), so the disabled path is indistinguishable from using
/// std::lock_guard directly (the overhead smoke check in
/// scripts/check.sh pins this). Enable per process via
/// SyncStatsRegistry::Enable() or the COLR_SYNC_STATS=1 environment
/// variable.
///
/// Collection protocol: each recording thread owns a registered block
/// of per-site accumulators and is the only writer to it (relaxed
/// atomics, so snapshot readers race benignly and TSan-cleanly).
/// Snapshot() sums the live blocks plus an accumulator holding the
/// blocks of exited threads (each thread's block is flushed into the
/// registry's retired accumulator by its thread-local holder's
/// destructor). Totals are exact whenever no thread is mid-record —
/// in particular at the quiescent points where benches and
/// replay::RunTimedReplay read them.

// SyncSite itself (plus kNumSyncSites and SyncSiteName) moved to
// common/lock_rank.h: the sites double as lock ranks for the deadlock
// contract and are generated from lock_order.inc, the single source
// of truth. This header keeps re-exporting them via that include.

/// Log2 wait-time bucket: 0 for uncontended acquisitions (wait 0),
/// otherwise 1 + floor(log2(wait_ns)) clamped to the last bucket —
/// so the buckets of one site always sum to its acquisition count.
inline constexpr int kSyncWaitBuckets = 32;
int SyncWaitBucket(int64_t wait_ns);

/// Plain-value per-site counters (snapshot form).
struct SyncSiteStats {
  int64_t acquisitions = 0;
  int64_t contended = 0;
  int64_t total_wait_ns = 0;
  int64_t max_wait_ns = 0;
  std::array<int64_t, kSyncWaitBuckets> wait_hist{};
};

/// Point-in-time view of every site, readable while threads record.
struct SyncStatsSnapshot {
  /// Whether recording was enabled when the snapshot was taken. A
  /// disabled snapshot is all zeros and JSON emitters skip it.
  bool enabled = false;
  std::array<SyncSiteStats, kNumSyncSites> sites{};

  int64_t TotalWaitNs() const;
  /// Site burning the most wait time (ties and all-zero waits fall
  /// back to contended count, then acquisitions). -1 if no site was
  /// ever acquired.
  int HottestSite() const;
  /// This site's share of the total wait time, in [0, 1] (0 when no
  /// site waited at all).
  double ContentionShare(SyncSite site) const;
};

/// Per-site difference after - before (counters are cumulative per
/// process; benches and timed replays report per-run deltas).
SyncStatsSnapshot SyncStatsDelta(const SyncStatsSnapshot& after,
                                 const SyncStatsSnapshot& before);

namespace sync_internal {
/// Process-wide enable flag; initialized from COLR_SYNC_STATS at
/// startup, latched on by SyncStatsRegistry::Enable().
extern std::atomic<bool> g_sync_stats_enabled;
}  // namespace sync_internal

/// Hot-path check read by every site-naming guard.
inline bool SyncStatsEnabled() {
  return sync_internal::g_sync_stats_enabled.load(std::memory_order_relaxed);
}

/// Records one acquisition into the calling thread's block (registers
/// the block on first use). Only call when SyncStatsEnabled().
void SyncStatsRecord(SyncSite site, bool contended, int64_t wait_ns);

/// Process-wide registry of per-thread accumulator blocks.
class SyncStatsRegistry {
 public:
  /// The singleton. Intentionally leaked so thread-local holders
  /// flushing at thread exit never outlive it.
  static SyncStatsRegistry& Instance();

  /// Turns recording on for the whole process (sticky; there is no
  /// disable — counters are cumulative and consumers read deltas).
  static void Enable();

  /// Sums live thread blocks + retired accumulator.
  SyncStatsSnapshot Snapshot() const;

 private:
  friend void SyncStatsRecord(SyncSite, bool, int64_t);
  struct ThreadBlock;
  class ThreadHolder;
  struct Impl;

  SyncStatsRegistry();
  ThreadBlock* BlockForThisThread();
  void Retire(ThreadBlock* block);
  static void AccumulateBlock(SyncSiteStats* out, const ThreadBlock& block);

  Impl* const impl_;  // leaked with the registry
};

}  // namespace colr

#endif  // COLR_COMMON_SYNC_STATS_H_
