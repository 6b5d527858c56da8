#include "vodsim/sched/intermittent.h"

#include <algorithm>
#include <cassert>

#include "vodsim/sched/finish_order.h"

namespace vodsim {

IntermittentScheduler::IntermittentScheduler(Seconds safety_cover)
    : safety_cover_(safety_cover) {
  assert(safety_cover >= 0.0);
}

namespace {

/// Smoothing horizon for the absorption cap (seconds).
constexpr Seconds kAbsorptionHorizon = 10.0;

/// Tolerance on staged-cover comparisons (seconds); must be at least the
/// engine's buffer-level tolerance expressed in playback time.
constexpr Seconds kCoverTolerance = 1e-6;

/// Highest rate the client can usefully absorb over the smoothing horizon:
/// its drain rate plus enough to fill the remaining headroom in
/// kAbsorptionHorizon seconds. Without this cap a near-full viewing buffer
/// would flip between "full -> 0 Mb/s" and "hairline below full -> receive
/// cap" every few nanoseconds of simulated time (fluid-model chattering);
/// with it, the grant converges smoothly to the drain rate as the buffer
/// fills, and buffer-full predictions stay at least ~kAbsorptionHorizon
/// apart.
Mbps absorption_cap(const Request& request, Seconds now) {
  return request.drain_rate(now) +
         request.buffer_headroom() / kAbsorptionHorizon;
}

}  // namespace

void IntermittentScheduler::allocate(Seconds now, Mbps capacity,
                                     const std::vector<Request*>& active,
                                     std::vector<Mbps>& rates,
                                     AllocationScratch& scratch,
                                     SchedCache* cache) const {
  // The per-stream reads below go through Request accessors, which read
  // the same lane slots; check the candidate vector is that lane up front.
  (void)sched_detail::lane_view(active);
  rates.assign(active.size(), 0.0);
  Mbps left = capacity;

  // Phase 1 — safety. A fluid model chatters if an urgent stream is fed
  // exactly its drain rate (its level pins to the threshold and membership
  // flips every epsilon), so urgency is handled with two stabilizing rules:
  //   - when the link can cover every urgent stream's drain, urgent streams
  //     are additionally *boosted* toward their receive caps (most-starved
  //     first) so they refill well clear of the threshold;
  //   - in a crunch (over-committed link), the shortfall is shared
  //     proportionally — membership stays stable while everyone drains.
  std::vector<std::size_t>& urgent = scratch.aux;
  urgent.clear();
  Mbps urgent_drain = 0.0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    Request& request = *active[i];
    const Mbps drain = request.drain_rate(now);
    if (drain <= 0.0) continue;  // paused or past the end: nothing to protect
    // Hysteresis: latch urgency below the safety threshold, release only
    // after recovering to twice the threshold. A knife-edge membership test
    // would chatter (fed -> above threshold -> starved -> below -> ...).
    const Seconds cover =
        request.buffer_cover();
    // The engine's buffer-low wake-up fires when cover *reaches* the
    // threshold (and then stops waking, trusting the scheduler), so the
    // latch must engage at equality too — hence the tolerance.
    const bool was_urgent = request.workahead_urgent;
    if (cover <= safety_cover_ + kCoverTolerance) {
      request.workahead_urgent = true;
    } else if (cover >= 2.0 * safety_cover_) {
      request.workahead_urgent = false;
    }
    if (request.workahead_urgent != was_urgent && trace_ != nullptr &&
        trace_->wants(kTraceSched)) {
      trace_->record(now,
                     request.workahead_urgent ? TraceEventType::kUrgentOn
                                              : TraceEventType::kUrgentOff,
                     request.server(), request.id(), request.video_id(), cover);
    }
    if (request.workahead_urgent) {
      urgent.push_back(i);
      urgent_drain += drain;
    }
  }

  if (urgent_drain > left) {
    // Crunch: continuity is already at risk; ration proportionally.
    for (std::size_t index : urgent) {
      const Request& request = *active[index];
      rates[index] = left * request.drain_rate(now) / urgent_drain;
    }
    return;
  }

  std::sort(urgent.begin(), urgent.end(), [&](std::size_t a, std::size_t b) {
    const Megabits la = active[a]->buffer_level();
    const Megabits lb = active[b]->buffer_level();
    if (la != lb) return la < lb;
    return active[a]->id() < active[b]->id();
  });
  for (std::size_t index : urgent) {
    const Request& request = *active[index];
    rates[index] = request.drain_rate(now);
    left -= rates[index];
  }
  // Refill boost, most-starved first.
  for (std::size_t index : urgent) {
    if (left <= 0.0) break;
    const Request& request = *active[index];
    if (request.buffer_full()) continue;
    const Mbps cap = std::min(request.receive_bandwidth(),
                              absorption_cap(request, now));
    const Mbps grant = std::min(left, cap - rates[index]);
    if (grant <= 0.0) continue;
    rates[index] += grant;
    left -= grant;
  }

  // Phase 2 — greedy workahead, earliest projected finish first, bounded by
  // what each client can absorb.
  if (left <= 0.0) return;
  std::vector<std::size_t>& order = scratch.order;
  order.clear();
  for (std::size_t i = 0; i < active.size(); ++i) {
    const Request& request = *active[i];
    if (request.buffer_full()) continue;
    if (rates[i] >= request.receive_bandwidth()) continue;
    order.push_back(i);
  }
  // Cache-seeded repair of the previous workahead order (phase 1's urgent
  // sort keys on buffer level, which reshuffles every pass over a small set
  // — not worth caching; this one is the per-event O(n log n) resort).
  // scratch.aux (the urgent list) is dead by now and is clobbered here.
  sched_detail::sort_by_projected_finish(now, /*earliest_first=*/true, active,
                                         scratch, cache);
  for (std::size_t index : order) {
    if (left <= 0.0) break;
    const Request& request = *active[index];
    const Mbps cap = std::min(request.receive_bandwidth(),
                              absorption_cap(request, now));
    const Mbps grant = std::min(left, cap - rates[index]);
    if (grant <= 0.0) continue;
    rates[index] += grant;
    left -= grant;
  }
}

}  // namespace vodsim
