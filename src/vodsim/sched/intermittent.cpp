#include "vodsim/sched/intermittent.h"

#include <algorithm>
#include <cassert>
#include <cfloat>

#include "vodsim/sched/finish_order.h"

namespace vodsim {

IntermittentScheduler::IntermittentScheduler(Seconds safety_cover)
    : safety_cover_(safety_cover) {
  assert(safety_cover >= 0.0);
}

void IntermittentScheduler::allocate(Seconds now, Mbps capacity,
                                     const std::vector<Request*>& active,
                                     std::vector<Mbps>& rates,
                                     AllocationScratch& scratch,
                                     SchedCache* cache) const {
  // Every per-stream input is a lane slot; a Request is dereferenced only
  // to mirror a latch flip and on an exact sort-key tie (the id tie-break).
  FluidLane* const lane_ptr = sched_detail::mutable_lane_view(active);
  rates.assign(active.size(), 0.0);
  if (lane_ptr == nullptr) return;
  FluidLane& lane = *lane_ptr;
  const std::size_t n = lane.size();
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
  for (std::size_t i = 0; i < n; ++i) {
    const Mbps drain = lane.drain_rate(i, now);
    if (drain <= 0.0) continue;  // paused or past the end: nothing to protect
    const Seconds cover = lane.buffer_cover(i);
    const double latch =
        fluid_detail::urgency_latch(lane.urgent(i), cover, safety_cover_);
    if (latch != lane.urgent(i)) {
      lane.set_urgent(i, latch);
      Request& request = *active[i];
      request.workahead_urgent = latch != 0.0;
      if (trace_ != nullptr && trace_->wants(kTraceSched)) {
        trace_->record(now,
                       request.workahead_urgent ? TraceEventType::kUrgentOn
                                                : TraceEventType::kUrgentOff,
                       request.server(), request.id(), request.video_id(),
                       cover);
      }
    }
    if (latch != 0.0) {
      urgent.push_back(i);
      urgent_drain += drain;
    }
  }

  if (urgent_drain > left) {
    // Crunch: continuity is already at risk; ration proportionally.
    for (std::size_t index : urgent) {
      rates[index] = left * lane.drain_rate(index, now) / urgent_drain;
    }
    return;
  }

  std::sort(urgent.begin(), urgent.end(), [&](std::size_t a, std::size_t b) {
    const Megabits la = lane.buffer_level(a);
    const Megabits lb = lane.buffer_level(b);
    if (la != lb) return la < lb;
    return active[a]->id() < active[b]->id();
  });
  for (std::size_t index : urgent) {
    rates[index] = lane.drain_rate(index, now);
    left -= rates[index];
  }
  // Refill boost, most-starved first.
  for (std::size_t index : urgent) {
    if (left <= 0.0) break;
    if (lane.buffer_full(index)) continue;
    const Mbps grant =
        std::min(left, lane.absorption_cap(index, now) - rates[index]);
    if (grant <= 0.0) continue;
    rates[index] += grant;
    left -= grant;
  }

  // Phase 2 — greedy workahead, earliest projected finish first, bounded by
  // what each client can absorb. A candidate's room, cap - rate, is its
  // grant when nothing clips it; demand sums the positive ones.
  if (left <= 0.0) return;
  std::vector<std::size_t>& order = scratch.order;
  std::vector<Mbps>& room = scratch.room;
  order.clear();
  room.resize(n);
  Mbps demand = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (lane.buffer_full(i)) continue;
    if (rates[i] >= lane.receive_bandwidth(i)) continue;
    order.push_back(i);
    room[i] = lane.absorption_cap(i, now) - rates[i];
    if (room[i] > 0.0) demand += room[i];
  }

  // Fits-all shortcut. The sorted walk below grants each candidate
  // min(left_k, room) from the running residue left_k, so when every
  // left_k >= room the grant is room itself and the order changes no bit.
  // With u = DBL_EPSILON / 2 and m = order.size(): each left_k is one
  // rounded subtraction more than left_{k-1}, and every residue lies in
  // [0, left], so |left_k - exact_k| <= k·u·left, where exact_k is left
  // minus the exact sum of the first k rooms. The recursive sum gives
  // demand >= D·(1 - m·u), D being the exact sum of all rooms. So
  // left_{k-1} >= room_k in every order once left - D >= m·u·left, and
  // left_{k-1} > 0 whenever room_k > 0, so the walk never breaks early.
  // The test below demands 4(m+2)·u·(left + demand), which covers both
  // error terms and the rounding of the test itself. It holds on almost
  // every pass of an unsaturated server, and then the O(m log m) sort is
  // skipped; the grants are the same room values the walk would add.
  if (left - demand > 2.0 * static_cast<double>(order.size() + 2) *
                          DBL_EPSILON * (left + demand)) {
    for (const std::size_t index : order) {
      if (room[index] > 0.0) rates[index] += room[index];
    }
    return;
  }

  // Cache-seeded repair of the previous workahead order (phase 1's urgent
  // sort keys on buffer level, which reshuffles every pass over a small set
  // — not worth caching; this one is the per-event O(n log n) resort).
  // scratch.aux (the urgent list) is dead by now and is clobbered here.
  sched_detail::sort_by_projected_finish(now, /*earliest_first=*/true, active,
                                         scratch, cache);
  for (std::size_t index : order) {
    if (left <= 0.0) break;
    const Mbps grant = std::min(left, room[index]);
    if (grant <= 0.0) continue;
    rates[index] += grant;
    left -= grant;
  }
}

}  // namespace vodsim
