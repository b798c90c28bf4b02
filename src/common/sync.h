#ifndef COLR_COMMON_SYNC_H_
#define COLR_COMMON_SYNC_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "common/deadlock.h"
#include "common/lock_rank.h"
#include "common/sync_stats.h"
#include "common/thread_annotations.h"

namespace colr {

// The lock primitives below are plain Lockable / SharedLockable types,
// and one guard pair takes every lock: MutexLock<M> (exclusive) and
// ReaderLock<M> (shared), deduced from their argument. A guard that
// names its SyncSite — `MutexLock lock(mu, SyncSite::kPoolQueue)` —
// checks the site against the lock's rank when the build arms
// COLR_DEADLOCK_CHECK and feeds that site's contention counters
// (sync_stats.h) when recording is on; with recording off it costs one
// relaxed load plus the plain lock(). The siteless form is for the
// unranked locks of benches and tests and never records.
//
// Every primitive is an annotated Clang Thread Safety capability
// (thread_annotations.h), and these wrappers are the only lock
// vocabulary the engine uses: scripts/lint.py bans the raw std::
// mutex/lock types outside src/common/ and requires every guard under
// src/ to name its site, so every lock site is (a) visible to the
// static analysis and (b) recorded by the sync-stats counters.
//
// Each primitive additionally carries a LockRankTag (common/
// deadlock.h): construct it with the SyncSite it serves and every
// acquisition is checked against the lock-order DAG declared in
// lock_order.inc when the build arms COLR_DEADLOCK_CHECK. Default
// construction leaves the lock unranked (bench/test scratch locks) —
// the detector ignores it. The tag is an empty member in normal
// builds; the layouts below are unchanged.

/// Annotated drop-in for std::mutex. Exists because libstdc++'s
/// std::mutex carries no capability attributes, which would make every
/// COLR_GUARDED_BY contract on it vacuous under -Wthread-safety.
class COLR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(SyncSite site) : rank_(site) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // OnAcquire runs before the blocking call so an inversion aborts
  // with a report instead of deadlocking in mu_.lock().
  void lock() COLR_ACQUIRE() {
    rank_.OnAcquire();
    mu_.lock();
  }
  void unlock() COLR_RELEASE() {
    rank_.OnRelease();
    mu_.unlock();
  }
  bool try_lock() COLR_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    rank_.OnAcquire();
    return true;
  }

  void AssertRankIs(SyncSite site) const { rank_.AssertMatches(site); }

 private:
  std::mutex mu_;
  COLR_NO_UNIQUE_ADDRESS LockRankTag rank_;
};

/// Annotated drop-in for std::shared_mutex (same rationale as Mutex).
class COLR_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(SyncSite site) : rank_(site) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() COLR_ACQUIRE() {
    rank_.OnAcquire();
    mu_.lock();
  }
  void unlock() COLR_RELEASE() {
    rank_.OnRelease();
    mu_.unlock();
  }
  bool try_lock() COLR_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    rank_.OnAcquire();
    return true;
  }
  // Shared holds participate in ordering exactly like exclusive ones:
  // a reader nested inside the wrong lock deadlocks against a writer
  // all the same.
  void lock_shared() COLR_ACQUIRE_SHARED() {
    rank_.OnAcquire();
    mu_.lock_shared();
  }
  void unlock_shared() COLR_RELEASE_SHARED() {
    rank_.OnRelease();
    mu_.unlock_shared();
  }
  bool try_lock_shared() COLR_TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    rank_.OnAcquire();
    return true;
  }

  /// StripedMutex ranks its stripes post-construction (arrays cannot
  /// forward constructor arguments).
  void SetRank(SyncSite site) { rank_ = LockRankTag(site); }
  void AssertRankIs(SyncSite site) const { rank_.AssertMatches(site); }

 private:
  std::shared_mutex mu_;
  COLR_NO_UNIQUE_ADDRESS LockRankTag rank_;
};

/// Striped (sharded) lock table: maps an integer key (node id, sensor
/// id, ...) onto a small fixed set of shared mutexes so that fine-
/// grained state — e.g. one slot cache per COLR-Tree node — can be
/// locked per entity without paying one mutex per entity. Collisions
/// only cost false contention, never correctness.
///
/// Lock discipline (see DESIGN.md "Concurrency model"): a thread holds
/// at most one stripe at a time, so stripe acquisition order can never
/// deadlock.
///
/// Static-analysis note: the stripe for a key is resolved at runtime,
/// which is aliasing the Clang thread-safety analysis cannot follow —
/// the returned SharedMutex is an annotated capability (so guard
/// objects over it are balanced), but per-key GUARDED_BY contracts on
/// striped data are documented in DESIGN.md §6 and enforced by TSan,
/// not by the static analysis.
class StripedMutex {
 public:
  explicit StripedMutex(size_t stripes = 64) : stripes_(stripes) {}
  /// All stripes share one SyncSite: the table is one protocol lock
  /// with many physical words, and the one-stripe-at-a-time discipline
  /// above means the detector treats a second same-site acquisition as
  /// the recursion bug it is.
  explicit StripedMutex(SyncSite site, size_t stripes = 64)
      : stripes_(stripes) {
    for (SharedMutex& mu : locks_) mu.SetRank(site);
  }

  SharedMutex& For(int64_t key) {
    return locks_[static_cast<size_t>(Mix(key)) % kMaxStripes % stripes_];
  }

  size_t stripes() const { return stripes_; }

 private:
  static uint64_t Mix(int64_t key) {
    // SplitMix64 finalizer: adjacent ids (siblings in the tree) land
    // on unrelated stripes.
    uint64_t z = static_cast<uint64_t>(key) + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  static constexpr size_t kMaxStripes = 256;
  size_t stripes_;
  SharedMutex locks_[kMaxStripes];
};

/// Shared/exclusive latch that stamps an epoch number on every
/// exclusive section. Writers that only need the protected state to
/// stay *stable* (e.g. ColrTree inserts, which require the slot-window
/// head not to move mid-insert) hold it shared and proceed
/// concurrently; rare maintenance that *changes* that state (window
/// rolls, expunges, whole-tree consistency audits) holds it exclusive
/// and advances the epoch on release. The epoch counter gives tests
/// and diagnostics a cheap "how many exclusive maintenance sections
/// have completed" observable without any extra synchronization.
///
/// Meets the Lockable / SharedLockable requirements, so it composes
/// with std::lock_guard / std::shared_lock.
///
/// The shared side is reader-striped (a "big-reader" lock): each
/// thread read-locks only its own cache-line-padded stripe, so
/// concurrent shared acquisitions never touch a common line — a single
/// shared_mutex here would turn its lock word into an all-writers
/// contention point at millions of acquisitions per second. The
/// exclusive side acquires every stripe in index order (uniform order
/// across exclusive lockers, so they cannot deadlock; shared holders
/// hold exactly one stripe). Exclusive sections therefore cost
/// kStripes lock operations — the intended trade for latches whose
/// exclusive side is rare maintenance.
class COLR_CAPABILITY("EpochLatch") EpochLatch {
 public:
  EpochLatch() = default;
  /// The shared and exclusive sides are distinct protocol sites (they
  /// sit at different points in the acquired-after DAG: a roll may
  /// nest locks a mere stable-hold may not).
  EpochLatch(SyncSite shared_site, SyncSite exclusive_site)
      : shared_rank_(shared_site), exclusive_rank_(exclusive_site) {}

  void lock() COLR_ACQUIRE() {
    exclusive_rank_.OnAcquire();
    // The internal stripes are acquired in index order by every
    // exclusive locker; the detector sees the latch as one site.
    for (size_t i = 0; i < kStripes; ++i) stripes_[i].mu.lock();
  }
  void unlock() COLR_RELEASE() {
    epoch_.fetch_add(1, std::memory_order_release);
    exclusive_rank_.OnRelease();
    for (size_t i = kStripes; i-- > 0;) stripes_[i].mu.unlock();
  }
  bool try_lock() COLR_TRY_ACQUIRE(true) {
    for (size_t i = 0; i < kStripes; ++i) {
      if (!stripes_[i].mu.try_lock()) {
        while (i-- > 0) stripes_[i].mu.unlock();
        return false;
      }
    }
    exclusive_rank_.OnAcquire();
    return true;
  }

  void lock_shared() COLR_ACQUIRE_SHARED() {
    shared_rank_.OnAcquire();
    stripes_[MyStripe()].mu.lock_shared();
  }
  void unlock_shared() COLR_RELEASE_SHARED() {
    shared_rank_.OnRelease();
    stripes_[MyStripe()].mu.unlock_shared();
  }
  bool try_lock_shared() COLR_TRY_ACQUIRE_SHARED(true) {
    if (!stripes_[MyStripe()].mu.try_lock_shared()) return false;
    shared_rank_.OnAcquire();
    return true;
  }

  /// Accepts either side's site: MutexLock names the exclusive site,
  /// ReaderLock the shared one, and both guards cross-check here.
  void AssertRankIs(SyncSite site) const {
    // One of the two must match; an unranked latch accepts anything.
    if (exclusive_rank_.MatchesExactly(site) ||
        shared_rank_.MatchesExactly(site)) {
      return;
    }
    shared_rank_.AssertMatches(site);
  }

  /// Number of completed exclusive sections.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  static constexpr size_t kStripes = 32;
  struct alignas(64) Stripe {
    std::shared_mutex mu;
  };

  /// Stable per-thread stripe index (round-robin at first use), so a
  /// thread's unlock_shared always releases the stripe its
  /// lock_shared took.
  static size_t MyStripe() {
    static std::atomic<size_t> next{0};
    static thread_local const size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripe;
  }

  Stripe stripes_[kStripes];
  std::atomic<uint64_t> epoch_{0};
  COLR_NO_UNIQUE_ADDRESS LockRankTag shared_rank_;
  COLR_NO_UNIQUE_ADDRESS LockRankTag exclusive_rank_;
};

/// Test-and-test-and-set spinlock for critical sections of a few
/// dozen nanoseconds that many threads hit on every operation (e.g.
/// ColrTree's root-region aggregate updates: two ring-buffer writes).
/// At that section length a std::mutex costs more in futex handoff
/// latency under contention than the protected work itself — waiters
/// sleep and wake in multi-microsecond turns, capping system
/// throughput at one wakeup per turn. Spinning keeps the handoff at
/// cache-coherence latency. Not fair; only use it where the hold time
/// is provably tiny and bounded.
///
/// Waiters spin a bounded number of iterations and then yield the
/// core: if the holder was preempted (oversubscribed or single-core
/// hosts), unbounded spinning would burn the holder's own CPU quantum
/// waiting for it to run again.
///
/// Meets the Lockable requirements (composes with std::lock_guard).
class COLR_CAPABILITY("SpinMutex") SpinMutex {
 public:
  SpinMutex() = default;
  explicit SpinMutex(SyncSite site) : rank_(site) {}

  void lock() COLR_ACQUIRE() {
    rank_.OnAcquire();
    while (locked_.exchange(true, std::memory_order_acquire)) {
      // Spin on a plain load so waiters share the line in the cache
      // until the holder's store invalidates it (test-and-test-and-set).
      int spins = 0;
      while (locked_.load(std::memory_order_relaxed)) {
        if (++spins < kSpinLimit) {
          CpuRelax();
        } else {
          spins = 0;
          std::this_thread::yield();
        }
      }
    }
  }
  bool try_lock() COLR_TRY_ACQUIRE(true) {
    if (locked_.load(std::memory_order_relaxed) ||
        locked_.exchange(true, std::memory_order_acquire)) {
      return false;
    }
    rank_.OnAcquire();
    return true;
  }
  void unlock() COLR_RELEASE() {
    rank_.OnRelease();
    locked_.store(false, std::memory_order_release);
  }

  void AssertRankIs(SyncSite site) const { rank_.AssertMatches(site); }

 private:
  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
  }

  static constexpr int kSpinLimit = 128;
  std::atomic<bool> locked_{false};
  COLR_NO_UNIQUE_ADDRESS LockRankTag rank_;
};

namespace sync_internal {
inline int64_t WaitNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}
}  // namespace sync_internal

/// RAII exclusive guard over any annotated Lockable (Mutex, SpinMutex,
/// SharedMutex, EpochLatch's exclusive side). The site-naming form is
/// the one every lock under src/ uses:
///   - the named site must be the lock's constructed rank (checked
///     when the detector is armed, so the site the lint reads at the
///     call site cannot drift from the lock it guards);
///   - recording off: one relaxed load, then the plain lock();
///   - recording on: a try_lock that succeeds records an uncontended
///     acquisition; a miss times the blocking lock() and records the
///     wait.
/// kStatsRegistry never records: a thread's first record registers its
/// stats block under that very lock. `site` is a constant at every
/// call site, so the exemption folds away.
template <typename M>
class COLR_SCOPED_CAPABILITY MutexLock {
 public:
  /// Unranked locks of benches and tests: never records.
  explicit MutexLock(M& mu) COLR_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  MutexLock(M& mu, SyncSite site) COLR_ACQUIRE(mu) : mu_(mu) {
    mu_.AssertRankIs(site);
    if (site == SyncSite::kStatsRegistry || !SyncStatsEnabled()) {
      mu_.lock();
    } else if (mu_.try_lock()) {
      SyncStatsRecord(site, false, 0);
    } else {
      const auto start = std::chrono::steady_clock::now();
      mu_.lock();
      SyncStatsRecord(site, true, sync_internal::WaitNs(start));
    }
  }
  ~MutexLock() COLR_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  M& mu_;
};

/// Shared-side counterpart over SharedLockable capabilities
/// (SharedMutex, EpochLatch's shared side), with the site-naming
/// form's checks and costs (the registry's lock is a plain Mutex, so
/// no exemption here).
template <typename M>
class COLR_SCOPED_CAPABILITY ReaderLock {
 public:
  ReaderLock(M& mu, SyncSite site) COLR_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.AssertRankIs(site);
    if (!SyncStatsEnabled()) {
      mu_.lock_shared();
    } else if (mu_.try_lock_shared()) {
      SyncStatsRecord(site, false, 0);
    } else {
      const auto start = std::chrono::steady_clock::now();
      mu_.lock_shared();
      SyncStatsRecord(site, true, sync_internal::WaitNs(start));
    }
  }
  ~ReaderLock() COLR_RELEASE_SHARED() { mu_.unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  M& mu_;
};

/// Copyable atomic counter. std::atomic is neither copyable nor
/// movable, which makes it awkward inside resizable containers and
/// value-semantics structs (SensorNetwork::Counters, cumulative query
/// stats); this wrapper restores copyability with the obvious
/// load/store semantics. All operations are relaxed: the counters are
/// statistics, ordered externally by the joins/barriers of whoever
/// reads them.
template <typename T>
class AtomicCounter {
 public:
  AtomicCounter(T v = T{}) : v_(v) {}  // NOLINT: implicit by design
  AtomicCounter(const AtomicCounter& o) : v_(o.load()) {}
  AtomicCounter& operator=(const AtomicCounter& o) {
    store(o.load());
    return *this;
  }
  AtomicCounter& operator=(T v) {
    store(v);
    return *this;
  }

  T load() const { return v_.load(std::memory_order_relaxed); }
  void store(T v) { v_.store(v, std::memory_order_relaxed); }
  T Add(T d) { return v_.fetch_add(d, std::memory_order_relaxed) + d; }
  AtomicCounter& operator+=(T d) {
    v_.fetch_add(d, std::memory_order_relaxed);
    return *this;
  }
  AtomicCounter& operator++() {
    v_.fetch_add(T{1}, std::memory_order_relaxed);
    return *this;
  }
  operator T() const { return load(); }  // NOLINT: implicit by design

 private:
  std::atomic<T> v_;
};

/// Copyable atomic double with relaxed load/store plus a CAS-based
/// fetch-add (portable even where atomic<double>::fetch_add is not
/// lock-free). Used for metadata that is read on hot query paths and
/// rewritten wholesale by maintenance (per-node mean availability,
/// accumulated latency totals).
class AtomicDouble {
 public:
  AtomicDouble(double v = 0.0) : v_(v) {}  // NOLINT: implicit by design
  AtomicDouble(const AtomicDouble& o) : v_(o.load()) {}
  AtomicDouble& operator=(const AtomicDouble& o) {
    store(o.load());
    return *this;
  }
  AtomicDouble& operator=(double v) {
    store(v);
    return *this;
  }

  double load() const { return v_.load(std::memory_order_relaxed); }
  void store(double v) { v_.store(v, std::memory_order_relaxed); }
  void Add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  bool CompareExchangeWeak(double& expected, double desired) {
    return v_.compare_exchange_weak(expected, desired,
                                    std::memory_order_relaxed);
  }
  AtomicDouble& operator+=(double d) {
    Add(d);
    return *this;
  }
  operator double() const { return load(); }  // NOLINT: implicit by design

 private:
  std::atomic<double> v_;
};

/// Mixes a base seed with a per-task ordinal into an independent
/// 64-bit seed (SplitMix64). Used to give every concurrently executed
/// query its own deterministic RNG stream.
inline uint64_t DeriveSeed(uint64_t base, uint64_t ordinal) {
  uint64_t z = base + (ordinal + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace colr

#endif  // COLR_COMMON_SYNC_H_
