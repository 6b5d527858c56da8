#pragma once

/// \file layers.h
/// \brief Per-layer measurement from outside the library: counts from a
/// traced run's TraceRecorder, and per-call costs from replaying each
/// layer's public entry point on the world an untraced run left behind.

#include <array>
#include <cstdint>

#include "bench.h"
#include "vodsim/engine/vod_simulation.h"
#include "vodsim/obs/trace.h"

namespace perfbench {

/// Event counts and payload sums of one traced run, or of several merged.
struct TraceCounts {
  static constexpr std::size_t kTypes =
      static_cast<std::size_t>(vodsim::TraceEventType::kResume) + 1;

  std::array<std::uint64_t, kTypes> by_type{};
  std::uint64_t events = 0;
  double recompute_streams = 0.0;  ///< sum of active streams over recomputes
  double search_nodes = 0.0;       ///< sum of nodes explored over searches
  std::uint64_t search_hits = 0;   ///< migration searches that found a plan

  std::uint64_t count(vodsim::TraceEventType type) const {
    return by_type[static_cast<std::size_t>(type)];
  }
  void merge(const TraceCounts& other);
};

/// Counts every event \p recorder holds. Throws std::runtime_error when the
/// ring overflowed: a traced run that lost events has failed; it never
/// reports short counts.
TraceCounts count_trace(const vodsim::TraceRecorder& recorder);

/// Per-call costs replayed on an end-of-run world (host time).
struct LayerCosts {
  double reschedule_ns = 0.0;          ///< Simulator::reschedule_at
  double step_ns = 0.0;                ///< Simulator::step incl. one schedule
  double advance_ns_per_stream = 0.0;  ///< FluidLane::advance_batch
  double predict_ns_per_stream = 0.0;  ///< FluidLane::fill_predicted_times
  double allocate_us = 0.0;            ///< BandwidthScheduler::allocate, per call
  double allocate_ns_per_stream = 0.0;
  double decide_us = 0.0;              ///< AdmissionController::decide
  double place_ms = 0.0;               ///< PlacementPolicy::place, fresh servers
  double bounds_ms = 0.0;              ///< compute_bounds on that placement
};

/// Replays every layer on \p sim, which must have finished run() untraced
/// (an attached recorder would record the replayed calls). Copies what the
/// replays mutate (fluid lanes, servers for placement) except the requests'
/// scheduler-owned urgency latch, which allocate() may flip; the run's
/// results have been read by then.
LayerCosts replay_layers(const vodsim::VodSimulation& sim, std::uint64_t seed);

/// Everything add_layer_metrics turns into the per-layer metric set.
struct LayerInputs {
  TraceCounts counts;
  LayerCosts costs;
  double events = 0.0;              ///< DES events executed
  double pending_end = 0.0;         ///< Simulator::pending_count after run()
  double streams_per_server = 0.0;  ///< time-weighted mean active streams
  double untraced_seconds = 0.0;    ///< host run() time the counts cover
  double trace_overhead = 0.0;      ///< traced / untraced host time - 1
  double trace_dropped = 0.0;
  double cells = 1.0;               ///< trials the counts cover
  double worlds_built = 1.0;
  double parallel_speedup = 1.0;
};

/// Adds the des/cluster/sched/admission/fault/placement/engine/obs/share
/// metrics, in that order, to \p report.
void add_layer_metrics(const LayerInputs& in, RunReport& report);

}  // namespace perfbench
