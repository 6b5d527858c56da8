#include "vodsim/sched/scheduler.h"

#include <cassert>
#include <stdexcept>

#include "vodsim/sched/continuous.h"
#include "vodsim/sched/eftf.h"
#include "vodsim/sched/intermittent.h"
#include "vodsim/sched/lftf.h"
#include "vodsim/sched/proportional.h"

namespace vodsim {

std::unique_ptr<BandwidthScheduler> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kEftf:
      return std::make_unique<EftfScheduler>();
    case SchedulerKind::kContinuous:
      return std::make_unique<ContinuousScheduler>();
    case SchedulerKind::kProportional:
      return std::make_unique<ProportionalShareScheduler>();
    case SchedulerKind::kLftf:
      return std::make_unique<LftfScheduler>();
    case SchedulerKind::kIntermittent:
      return std::make_unique<IntermittentScheduler>();
  }
  throw std::invalid_argument("unknown SchedulerKind");
}

SchedulerKind scheduler_kind_from_string(const std::string& name) {
  if (name == "eftf") return SchedulerKind::kEftf;
  if (name == "continuous") return SchedulerKind::kContinuous;
  if (name == "proportional") return SchedulerKind::kProportional;
  if (name == "lftf") return SchedulerKind::kLftf;
  if (name == "intermittent") return SchedulerKind::kIntermittent;
  throw std::invalid_argument("unknown scheduler: " + name);
}

std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kEftf:
      return "eftf";
    case SchedulerKind::kContinuous:
      return "continuous";
    case SchedulerKind::kProportional:
      return "proportional";
    case SchedulerKind::kLftf:
      return "lftf";
    case SchedulerKind::kIntermittent:
      return "intermittent";
  }
  return "?";
}

namespace sched_detail {

// Declared in scheduler.h: shared with finish_order.cpp's sort keys and
// the intermittent scheduler. The doc comments live on the declarations.
FluidLane* mutable_lane_view(const std::vector<Request*>& active) {
  if (active.empty()) return nullptr;
  FluidLane* const lane = active.front()->lane();
  if (lane == nullptr || lane->size() != active.size() ||
      active.front()->active_index != 0 || active.back()->lane() != lane ||
      active.back()->active_index != active.size() - 1) {
    throw std::invalid_argument(
        "scheduler candidates must be a server's active list");
  }
#ifndef NDEBUG
  for (std::size_t i = 0; i < active.size(); ++i) {
    assert(active[i]->lane() == lane && active[i]->active_index == i &&
           "lane-backed candidate vector out of slot order");
  }
#endif
  return lane;
}

const FluidLane& lane_view(const std::vector<Request*>& active) {
  static const FluidLane kNoStreams;
  const FluidLane* const lane = mutable_lane_view(active);
  return lane != nullptr ? *lane : kNoStreams;
}

Mbps assign_minimum_flow(Mbps capacity, const std::vector<Request*>& active,
                         std::vector<Mbps>& rates) {
  const Mbps committed = lane_view(active).sum_minimum_rates(rates);
  assert(committed <= capacity + 1e-6 && "admission over-committed the server");
  return capacity > committed ? capacity - committed : 0.0;
}

void eligible_indices(const std::vector<Request*>& active,
                      std::vector<std::size_t>& out) {
  out.clear();
  lane_view(active).eligible_slots(out);
}

void distribute_greedy(Mbps slack, const std::vector<std::size_t>& order,
                       const std::vector<Request*>& active,
                       std::vector<Mbps>& rates) {
  const FluidLane& lane = lane_view(active);
  for (std::size_t index : order) {
    if (slack <= 0.0) break;
    const Mbps room = lane.receive_bandwidth(index) - rates[index];
    if (room <= 0.0) continue;
    const Mbps grant = std::min(slack, room);
    rates[index] += grant;
    slack -= grant;
  }
}

}  // namespace sched_detail

}  // namespace vodsim
