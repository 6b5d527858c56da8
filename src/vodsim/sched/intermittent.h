#pragma once

/// \file intermittent.h
/// \brief Intermittent transmission: streams may be starved while their
/// staging buffers carry playback (paper §3.3's broader class).
///
/// The paper restricts itself to minimum-flow schedulers because "the
/// decision procedure for the optimal intermittent algorithm is impractical
/// to apply in real time". This is a *practical heuristic* member of the
/// intermittent class, used by the E16 ablation to quantify what minimum
/// flow leaves on the table — and what it protects against:
///
///   phase 1 (safety): every request whose staged data covers less than
///     `safety_cover` seconds of playback gets its drain rate first;
///   phase 2 (greedy EFTF): the rest of the link goes earliest-projected-
///     finish-first to any request with buffer headroom, up to its receive
///     cap. Requests with comfortable buffers may receive nothing at all.
///
/// Unlike the minimum-flow family this scheduler tolerates a server whose
/// nominal commitments exceed its link (buffer-aware admission): in a
/// crunch, phase 1 is clipped and playback continuity violations become
/// possible — the engine counts them.
///
/// Like the other schedulers it reads every per-stream input from the
/// server's FluidLane: drain, cover, headroom and the absorption cap are
/// fluid_detail formulas, and the urgency latch is a lane slot (mirrored
/// into Request::workahead_urgent on a flip, so it survives migration).
/// When the slack covers every workahead candidate's full grant — almost
/// every pass on an unsaturated server — the grant order cannot matter,
/// and phase 2 grants in slot order without sorting (the rounding margin
/// is proved in intermittent.cpp). The result is bit-identical either way.

#include "vodsim/sched/scheduler.h"

namespace vodsim {

class IntermittentScheduler final : public BandwidthScheduler {
 public:
  /// \param safety_cover seconds of staged playback below which a request
  ///        is considered urgent and fed before any workahead.
  explicit IntermittentScheduler(Seconds safety_cover = 10.0);

  using BandwidthScheduler::allocate;
  void allocate(Seconds now, Mbps capacity, const std::vector<Request*>& active,
                std::vector<Mbps>& rates, AllocationScratch& scratch,
                SchedCache* cache) const override;

  std::string name() const override { return "intermittent"; }

  bool minimum_flow() const override { return false; }

  Seconds safety_cover() const { return safety_cover_; }

 private:
  Seconds safety_cover_;
};

}  // namespace vodsim
