#pragma once

/// \file client.h
/// \brief Client-side staging model.
///
/// Each request is associated with one client. The client plays the video at
/// `b_view` starting the instant the request is admitted, and owns a staging
/// buffer (disk) of fixed capacity into which the server may transmit ahead
/// of the playback point. A client can receive at most `receive_bandwidth`
/// (30 Mb/s in the paper's staging experiments; unbounded = infinity).

#include <limits>

#include "vodsim/util/units.h"

namespace vodsim {

/// Per-client parameters shared by all requests in an experiment.
struct ClientProfile {
  /// Staging buffer capacity in megabits. The paper expresses this as a
  /// percentage of the average video size; engine::Config does the
  /// conversion. 0 disables staging (pure continuous transmission).
  Megabits buffer_capacity = 0.0;

  /// Maximum rate at which this client can receive data. Infinity models
  /// the unbounded case of Theorem 1.
  Mbps receive_bandwidth = std::numeric_limits<double>::infinity();
};

/// Staging-buffer storage of a request while it is detached from any
/// server (attached requests keep the level in the server's FluidLane).
/// The fill/drain, full, headroom and cover formulas are in fluid_detail
/// (cluster/fluid_lane.h); this class only holds the numbers.
class StagingBuffer {
 public:
  StagingBuffer() = default;
  explicit StagingBuffer(Megabits capacity) : capacity_(capacity) {}

  Megabits capacity() const { return capacity_; }
  Megabits level() const { return level_; }

  /// Overwrites the level: a request detaching from a server copies its
  /// lane slot back here, and a detached advance stores its result.
  /// \p level must already be clamped to [0, capacity].
  void set_level(Megabits level) { level_ = level; }

  /// Fluid-model tolerance on buffer levels (megabits); about 1e-6 s of a
  /// 3 Mb/s stream.
  static constexpr Megabits kLevelTolerance = 1e-6;

 private:
  Megabits capacity_ = 0.0;
  Megabits level_ = 0.0;
};

}  // namespace vodsim
