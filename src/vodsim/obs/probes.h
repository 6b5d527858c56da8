#pragma once

/// \file probes.h
/// \brief Periodic time-series probes over the running cluster.
///
/// A ProbeSet samples the cluster on a fixed time grid: per-server committed
/// bandwidth, reservations, active stream count and mean staging-buffer fill,
/// plus a cluster aggregate row carrying the event-queue depth. Sampling is
/// driven by the engine's post-event hook — no events are scheduled in the
/// simulator, so enabling probes cannot perturb event order or results
/// (pinned by determinism_test). Each grid instant is sampled at the first
/// event boundary at or after it; the row keeps the grid timestamp.
///
/// On top of the raw rows, the probe maintains the repo's standard stats
/// machinery: a TimeWeighted mean of committed bandwidth per server (sampled
/// signal) and a Histogram of per-stream staging fill fractions, so tests
/// and reports can assert against summaries without replaying the series.

#include <cstdint>
#include <vector>

#include "vodsim/cluster/server.h"
#include "vodsim/stats/histogram.h"
#include "vodsim/stats/time_weighted.h"
#include "vodsim/util/units.h"

namespace vodsim {

/// Probe knobs carried by SimulationConfig. The VODSIM_PROBE environment
/// variable (a period in seconds, nonzero) forces probing on.
struct ProbeConfig {
  bool enabled = false;
  Seconds period = 60.0;  ///< sampling grid spacing, simulated seconds
};

/// One sample row. `server == kNoServer` marks the cluster-aggregate row.
struct ProbeRow {
  Seconds time = 0.0;
  ServerId server = kNoServer;
  double committed_mbps = 0.0;
  double reserved_mbps = 0.0;
  double active_streams = 0.0;
  double mean_buffer_fill = 0.0;  ///< mean staging fill fraction (0 when no
                                  ///< active streams or no staging buffer)
  /// DES queue depth (aggregate row only). Predicted events count as one
  /// timer per server with a live prediction, not one entry per stream and
  /// prediction kind (DESIGN.md §8).
  double pending_events = 0.0;
  double capacity_factor = 1.0;   ///< brownout state (aggregate: mean)
  double retry_queue = 0.0;       ///< retry-queue depth (aggregate row only)
  double reachable = 1.0;         ///< 1 = controller can reach the server
                                  ///< (aggregate: fraction reachable)
};

class ProbeSet {
 public:
  ProbeSet(const ProbeConfig& config, std::size_t num_servers);

  /// Engine post-event hook: emits one sample block per grid instant in
  /// (last_event, now]. Cheap when no grid point was crossed (one compare).
  /// \p retry_depth is the fault retry-queue size (0 when retry disabled).
  void on_event(Seconds now, const std::vector<Server>& servers,
                std::size_t pending_events, std::size_t retry_depth = 0);

  /// Emits the grid instants between the last event and the horizon, then
  /// closes the time-weighted summaries. Call once, at end of run.
  void finalize(Seconds horizon, const std::vector<Server>& servers,
                std::size_t pending_events, std::size_t retry_depth = 0);

  Seconds period() const { return period_; }
  const std::vector<ProbeRow>& rows() const { return rows_; }

  /// Time-weighted mean committed bandwidth of \p server over the sampled
  /// series.
  const TimeWeighted& committed(std::size_t server) const {
    return committed_[server];
  }
  std::size_t num_servers() const { return committed_.size(); }

  /// Distribution of per-stream staging fill fractions across all samples.
  const Histogram& fill_histogram() const { return fill_hist_; }

  /// Grid instants sampled so far.
  std::uint64_t samples() const { return samples_; }

 private:
  void sample(Seconds grid_time, const std::vector<Server>& servers,
              std::size_t pending_events, std::size_t retry_depth);

  Seconds period_;
  Seconds next_ = 0.0;
  std::uint64_t samples_ = 0;
  std::vector<ProbeRow> rows_;
  std::vector<TimeWeighted> committed_;
  Histogram fill_hist_;
};

}  // namespace vodsim
