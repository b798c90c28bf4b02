#include "core/probe_scheduler.h"

#include <algorithm>
#include <utility>

namespace colr {

ProbeScheduler::ProbeScheduler(SensorNetwork* network, const Options& options)
    : ProbeScheduler(
          [network](const std::vector<SensorId>& ids) {
            return network->ProbeBatch(ids);  // colr-lint: allow(probe-path)
          },
          network->clock(), network->size(), options) {}

ProbeScheduler::ProbeScheduler(Backend backend, const Clock* clock,
                               size_t num_sensors, const Options& options)
    : backend_(std::move(backend)),
      clock_(clock),
      options_(options),
      states_(num_sensors) {}

void ProbeScheduler::RefillTokens(SensorState* s, TimeMs now) const {
  if (!s->tokens_init) {
    s->tokens_init = true;
    s->tokens = options_.tokens_max;
    s->token_stamp_ms = now;
    return;
  }
  if (now <= s->token_stamp_ms) return;
  const double gained = static_cast<double>(now - s->token_stamp_ms) /
                        static_cast<double>(options_.token_refill_ms);
  s->tokens = std::min(options_.tokens_max, s->tokens + gained);
  s->token_stamp_ms = now;
}

bool ProbeScheduler::ReserveOutstanding() {
  if (options_.max_outstanding_probes == 0) {
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  size_t cur = outstanding_.load(std::memory_order_relaxed);
  while (cur < options_.max_outstanding_probes) {
    if (outstanding_.compare_exchange_weak(cur, cur + 1,
                                           std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

ProbeScheduler::BatchOutcome ProbeScheduler::ProbeBatch(
    const std::vector<SensorId>& ids) {
  BatchOutcome out;
  out.requested = ids.size();
  requested_ += static_cast<int64_t>(ids.size());
  if (ids.empty()) return out;

  const TimeMs now = clock_->NowMs();
  // Marks the sensors *this call* leads. A duplicated occurrence in
  // `ids` finds its own ticket and must not join its own flight: the
  // network deliberately probes every occurrence (per-occurrence
  // availability accounting, see ColrEngine::ProbeBatch), so repeats
  // go straight into the lead batch.
  const uint64_t ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);

  // A flight another query already has in the network; we captured its
  // completion counter and will wait for it to advance.
  struct Join {
    SensorId sid;
    uint64_t flights_before;
  };
  std::vector<Join> joins;
  std::vector<SensorId> lead;
  lead.reserve(ids.size());
  std::vector<Reading> reused_readings;

  // Phase 1 — classify every occurrence, in request order, one stripe
  // lock at a time.
  for (SensorId sid : ids) {
    if (sid >= states_.size()) {
      // Outside the catalog: never reaches the backend, like every
      // other per-sensor table (ReadingTable, AvailabilityTracker).
      ++out.shed;
      ++shed_admission_;
      continue;
    }
    Stripe& st = StripeFor(sid);
    MutexLock lock(st.mu, SyncSite::kProbeFlight);
    SensorState& s = states_[static_cast<size_t>(sid)];
    if (s.flight_ticket == ticket) {
      if (!ReserveOutstanding()) {
        ++out.shed;
        ++shed_admission_;
        continue;
      }
      ++s.pending_occurrences;
      lead.push_back(sid);
      continue;
    }
    if (s.flight_ticket != 0) {
      joins.push_back({sid, s.flights_done});
      ++out.coalesced;
      ++coalesced_;
      continue;
    }
    if (options_.token_refill_ms > 0) {
      RefillTokens(&s, now);
      if (s.tokens < 1.0) {
        if (options_.reuse_window_ms > 0 && s.has_result &&
            now - s.last_done_ms <= options_.reuse_window_ms) {
          ++out.reused;
          ++reused_;
          if (s.last_success) reused_readings.push_back(s.last_reading);
        } else {
          ++out.shed;
          ++shed_rate_limited_;
        }
        continue;
      }
    }
    if (!ReserveOutstanding()) {
      ++out.shed;
      ++shed_admission_;
      continue;
    }
    if (options_.token_refill_ms > 0) s.tokens -= 1.0;
    s.flight_ticket = ticket;
    s.pending_occurrences = 1;
    s.staged_reading = 0;
    lead.push_back(sid);
  }

  // Phase 2 — one network batch for everything we lead, issued with no
  // stripe held, then publish each sensor's outcome and wake joiners.
  // Publishing before waiting (phase 3) is what makes cross-query
  // joins deadlock-free: a waiter never owes anyone an unpublished
  // flight.
  if (!lead.empty()) {
    SensorNetwork::BatchResult batch = backend_(lead);
    batches_ += 1;
    issued_ += static_cast<int64_t>(lead.size());
    out.latency_ms = batch.latency_ms;
    const TimeMs done = clock_->NowMs();
    // Readings come back in request order, so one forward walk pairs
    // each with its occurrence. A sensor publishes once, after its
    // last occurrence: success if any occurrence succeeded, carrying
    // the last success (every occurrence still reached the network).
    size_t next = 0;
    for (SensorId sid : lead) {
      const bool ok = next < batch.readings.size() &&
                      batch.readings[next].sensor == sid;
      if (ok) ++next;
      Stripe& st = StripeFor(sid);
      MutexLock lock(st.mu, SyncSite::kProbeFlight);
      SensorState& s = states_[static_cast<size_t>(sid)];
      if (ok) s.staged_reading = static_cast<uint32_t>(next);
      if (--s.pending_occurrences > 0) continue;
      s.flight_ticket = 0;
      ++s.flights_done;
      s.has_result = true;
      s.last_success = s.staged_reading > 0;
      if (s.last_success) s.last_reading = batch.readings[s.staged_reading - 1];
      s.last_latency_ms = batch.latency_ms;
      s.last_done_ms = done;
      if (st.waiters > 0) st.cv.notify_all();
    }
    outstanding_.fetch_sub(lead.size(), std::memory_order_relaxed);
    out.issued_ids = std::move(lead);
    out.issued_readings = batch.readings.size();
    out.readings = std::move(batch.readings);
  }

  // Phase 3 — wait out the flights we joined and share their results.
  for (const Join& j : joins) {
    Stripe& st = StripeFor(j.sid);
    MutexLock lock(st.mu, SyncSite::kProbeFlight);
    SensorState& s = states_[static_cast<size_t>(j.sid)];
    if (s.flights_done <= j.flights_before) {
      ++st.waiters;
      while (s.flights_done <= j.flights_before) st.cv.wait(st.mu);
      --st.waiters;
    }
    if (s.last_success) out.readings.push_back(s.last_reading);
    out.latency_ms = std::max(out.latency_ms, s.last_latency_ms);
  }

  out.readings.insert(out.readings.end(), reused_readings.begin(),
                      reused_readings.end());
  return out;
}

ProbeScheduler::Stats ProbeScheduler::stats() const {
  Stats s;
  s.requested = requested_.load();
  s.issued = issued_.load();
  s.coalesced = coalesced_.load();
  s.reused = reused_.load();
  s.shed_rate_limited = shed_rate_limited_.load();
  s.shed_admission = shed_admission_.load();
  s.batches = batches_.load();
  return s;
}

}  // namespace colr
