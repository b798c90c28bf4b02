#ifndef COLR_CORE_SAMPLING_H_
#define COLR_CORE_SAMPLING_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "core/query.h"
#include "core/tree.h"

namespace colr {

/// Layered sampling (paper §V, Algorithm 1 + REDISTRIBUTE): a one-pass
/// algorithm that selects and probes an application-specified number R
/// of sensors *during* COLR-Tree range lookup, splitting the target
/// recursively among children in proportion to weight × overlap,
/// deducting cached readings, oversampling by historical availability
/// (exactly once per root-to-probe path), and redistributing shortfall
/// across pending nodes.
///
/// Guarantees (verified in tests/sampling_test.cc):
///  * Theorem 1 — the expected sample size is R.
///  * Theorem 2 — without caching, over uniformly spread sensors, each
///    sensor in the region contributes with equal probability R/N.
class LayeredSampler {
 public:
  struct Options {
    /// Target sample size R.
    double target = 0.0;
    /// Result threshold level T: descent may terminate at nodes deeper
    /// than T whose bounding box lies inside the query region.
    int terminal_level = 2;
    /// Use cached data to reduce probe targets (line 9/15).
    bool use_cache = true;
    /// Scale up targets by historical availability (line 10-11/18-19).
    bool oversample = true;
    /// Run the REDISTRIBUTE subroutine on shortfall (line 22-23).
    bool redistribute = true;
  };

  /// Outcome at one terminal (probing) node.
  struct Terminal {
    int node_id = -1;
    /// The target share r_i assigned to this terminal (before cache
    /// deduction and oversampling).
    double target = 0.0;
    int probes_attempted = 0;
    /// Readings obtained from probes.
    std::vector<Reading> collected;
    /// Cached contribution: aggregate + count (exact readings at
    /// leaves, slot-rule aggregate at internal terminals).
    Aggregate cached_agg;
    int64_t cached_count = 0;
    int cached_slots_merged = 0;
    /// Leaf terminals: the cached readings used (their sensors get the
    /// LRF touch) — copied out under the leaf's node stripe so the
    /// engine never dereferences reading-table pointers on the query
    /// path.
    std::vector<Reading> cached_readings;
  };

  struct Result {
    std::vector<Terminal> terminals;
    int64_t nodes_traversed = 0;
    int64_t internal_nodes_traversed = 0;
    int64_t cached_nodes_accessed = 0;
  };

  /// Probes the given sensors and returns the successfully collected
  /// readings. Supplied by the engine (wraps SensorNetwork and latency
  /// accounting).
  using ProbeFn =
      std::function<std::vector<Reading>(const std::vector<SensorId>&)>;

  /// Runs Algorithm 1 over `tree` for the given region and freshness.
  static Result Run(const ColrTree& tree, const QueryRegion& region,
                    TimeMs now, TimeMs staleness_ms, const Options& options,
                    Rng& rng, const ProbeFn& probe);
};

/// Rounds a fractional probe target to an integer without bias:
/// floor(x) plus a Bernoulli(frac(x)) extra. Exposed for testing.
int ProbabilisticRound(double x, Rng& rng);

}  // namespace colr

#endif  // COLR_CORE_SAMPLING_H_
