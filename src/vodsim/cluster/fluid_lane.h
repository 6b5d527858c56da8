#pragma once

/// \file fluid_lane.h
/// \brief Struct-of-arrays fluid stream state: one lane per server.
///
/// Each server owns a FluidLane holding the fluid-model state of its active
/// streams in parallel arrays indexed by `Request::active_index`. The lane
/// is maintained by Server::attach/detach in lock-step with the active
/// list: attach appends a slot (copying the request's home scalars) and
/// binds the request to the lane; detach copies the hot fields back and
/// mirrors the active list's swap-with-last, so slot order always equals
/// active order.
///
/// Authority model (see DESIGN.md §10):
///   - While a request is attached, the lane slot is authoritative for the
///     hot fields the fluid kernel mutates — remaining data, staging-buffer
///     level, last-update time. Request accessors read through the lane.
///   - Rarely-mutated fields (allocation, paused flag, playback end) stay
///     home-authoritative on the Request and are written through to the
///     lane, so the kernel reads them from contiguous storage while
///     ordinary reads stay branch-free.
///   - While detached (migrating, draining after TxComplete), the home
///     scalars are authoritative and Request::advance integrates them
///     with the same fluid_detail::advance_stream.
///
/// Storage (PR 9): all arrays live in ONE 64-byte-aligned arena, laid out
/// hot-to-cold at a shared stride so every array starts on a cache-line
/// boundary. The batch kernels get aligned, peel-free vector loads; the
/// single-stream scalar path touches a compact block of lines instead of ten
/// scattered heap allocations (the "gather tax" the PR 6 SoA split paid).
/// The hot block leads with the three kernel-mutated arrays (last-update,
/// remaining, buffer level), then the six kernel-read parameters; the cold
/// tail holds the receive bandwidth and the intermittent scheduler's
/// urgency latch, read only by the schedulers, and the stored predictions.
///
/// Predictions: each slot keeps the engine's three predicted events
/// (transmission complete, buffer full, buffer low) as event-queue keys
/// (time, seq), +inf time meaning none. The lane tracks the earliest live
/// key, which the engine's one timer per server carries (DESIGN.md §8).
/// It is kept incrementally, with a bound below which no other live key
/// lies: a new key below the bound becomes the argmin, and the lane is
/// rescanned only when the argmin was moved later, cleared or removed and
/// nothing below the bound replaced it.
///
/// Formulas: every per-stream quantity of the fluid model — the advance
/// step, the metering-window clip, buffer full/headroom/cover, drain rate,
/// minimum rate, workahead eligibility, projected finish, the three
/// predicted times and the intermittent scheduler's urgency latch and
/// absorption cap — is one inline function in `fluid_detail` below. The
/// batch kernels (fluid_lane.cpp) call them in their loop bodies, the
/// per-slot accessors and the Request accessors call them on one stream,
/// and Metrics calls the clip; no other copy exists. The functions are
/// branchless (selects, min/max and 1.0/0.0 masks instead of early-outs),
/// so the kernel loops that inline them still vectorize.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#include "vodsim/cluster/client.h"
#include "vodsim/des/event_queue.h"
#include "vodsim/util/units.h"

namespace vodsim {

class Request;

/// Per-stream fluid formulas, each defined exactly once. Inputs are plain
/// values, so the same function serves a lane slot, a detached request's
/// home scalars and a unit test. `playing` is the 1.0/0.0 playback mask
/// (0.0 while the viewer is paused).
///
/// Branchless on purpose: a call inside a kernel loop must not add
/// control flow, or GCC stops vectorizing it ("control flow in loop").
/// Each function is bit-equal to its natural branchy form (early-out at
/// dt <= 0, `if (!paused)`, clamp-if). No state ever holds -0.0 (levels
/// and remaining data come from max(0.0, x), which yields +0.0; rates and
/// times are nonnegative), so x + 0.0, x - 0.0, x * 1.0 and x * 0.0 == +0.0
/// hold bitwise, and each std::max/std::min argument order selects the
/// operand the branch would have. Negations are written 0.0 - x, because
/// unary FP negate defeats GCC's if-conversion.
/// The TU holding the kernels is built with -ffp-contract=off, and the
/// x86-64 baseline has no FMA, so no caller can fuse a multiply-add that
/// rounds differently from another.
namespace fluid_detail {

/// Fluid-model tolerance on remaining data (megabits).
inline constexpr Megabits kRemainingTolerance = 1e-6;

/// True when no further workahead fits (within fluid-model tolerance).
inline bool buffer_full(Megabits level, Megabits capacity) {
  return level >= capacity - StagingBuffer::kLevelTolerance;
}

/// Megabits of additional workahead the staging buffer can hold.
inline Megabits buffer_headroom(Megabits level, Megabits capacity) {
  return capacity > level ? capacity - level : 0.0;
}

/// Seconds of playback the staged level covers at \p view_bandwidth.
inline Seconds buffer_cover(Megabits level, Mbps view_bandwidth) {
  return level / view_bandwidth;
}

/// True once all data has been transmitted.
inline bool finished(Megabits remaining) {
  return remaining <= kRemainingTolerance;
}

/// Rate at which the client consumes data at \p now: the view bandwidth
/// while playing inside [arrival, playback_end), else +0.0.
inline Mbps drain_rate(Seconds now, Seconds arrival, Seconds playback_end,
                       Mbps view_bandwidth, double playing) {
  const double in_window = (now >= arrival) && (now < playback_end) ? 1.0 : 0.0;
  return view_bandwidth * in_window * playing;
}

/// Least rate a stream can usefully absorb: the view bandwidth (the
/// minimum-flow guarantee), or 0 for a paused client whose staging buffer
/// is full — its disk cannot take another bit.
inline Mbps minimum_rate(Megabits level, Megabits capacity,
                         Mbps view_bandwidth, double playing) {
  return (playing == 0.0 && buffer_full(level, capacity)) ? 0.0
                                                          : view_bandwidth;
}

/// True if a stream can absorb workahead: room in the staging buffer, a
/// receive link faster than playback, and data left to send.
inline bool workahead_eligible(Megabits level, Megabits capacity,
                               Mbps receive_bandwidth, Mbps view_bandwidth,
                               Megabits remaining) {
  return !buffer_full(level, capacity) && receive_bandwidth > view_bandwidth &&
         !finished(remaining);
}

/// Tolerance on the intermittent scheduler's staged-cover comparisons
/// (seconds); at least the buffer-level tolerance in playback time.
inline constexpr Seconds kCoverTolerance = 1e-6;

/// Smoothing horizon of the intermittent scheduler's absorption cap
/// (seconds).
inline constexpr Seconds kAbsorptionHorizon = 10.0;

/// The intermittent scheduler's urgency latch (1.0 urgent, 0.0 not) after
/// a pass that sees \p cover seconds staged: set at or below
/// \p safety_cover, cleared at twice it, held in between. The hysteresis
/// keeps a stream hovering at the threshold from flipping between fed and
/// starved every fluid instant. The engine's buffer-low wake-up fires when
/// cover *reaches* the threshold, so the set test includes equality, up to
/// kCoverTolerance.
inline double urgency_latch(double urgent, Seconds cover,
                            Seconds safety_cover) {
  return cover <= safety_cover + kCoverTolerance ? 1.0
         : cover >= 2.0 * safety_cover           ? 0.0
                                                 : urgent;
}

/// Highest rate the intermittent scheduler grants a stream: its drain rate
/// plus enough to fill the headroom in kAbsorptionHorizon seconds, clipped
/// to the receive bandwidth. Without the horizon term a near-full buffer
/// would flip between "full -> 0 Mb/s" and "hairline below full -> receive
/// cap" every few nanoseconds of simulated time (fluid-model chattering);
/// with it the grant converges smoothly to the drain rate as the buffer
/// fills, and buffer-full predictions stay at least ~kAbsorptionHorizon
/// apart.
inline Mbps absorption_cap(Mbps drain, Megabits headroom,
                           Mbps receive_bandwidth) {
  return std::min(receive_bandwidth, drain + headroom / kAbsorptionHorizon);
}

/// EFTF/LFTF ordering key: when the transmission would finish if sent at
/// exactly the view bandwidth from \p now on.
inline Seconds projected_finish(Seconds now, Megabits remaining,
                                Mbps view_bandwidth) {
  return now + remaining / view_bandwidth;
}

/// Megabits sent at \p rate over [t0, t1] that fall inside the metering
/// window [window_start, window_end]; +0.0 when the two do not overlap.
inline Megabits metered(Mbps rate, Seconds t0, Seconds t1,
                        Seconds window_start, Seconds window_end) {
  return rate *
         std::max(0.0, std::min(t1, window_end) - std::max(t0, window_start));
}

/// Applies \p inflow received and \p outflow played to a staging-buffer
/// \p level, clamping it into [0, capacity] (overshoot past capacity is
/// floating-point slop from event-time rounding). Returns the megabits by
/// which playback underran, 0 within StagingBuffer::kLevelTolerance.
inline Megabits fill_buffer(Megabits& level, Megabits capacity,
                            Megabits inflow, Megabits outflow) {
  const Megabits raw = level + (inflow - outflow);
  const Megabits underflow = std::max(0.0, 0.0 - raw);
  level = std::min(std::max(raw, 0.0), capacity);
  return underflow > StagingBuffer::kLevelTolerance ? underflow : 0.0;
}

/// One stream's fluid step from \p last_update to \p now at a constant
/// \p allocation: sends data, plays back the part of the interval that
/// overlaps [arrival, playback_end] unless paused, and sets last_update to
/// now. A step with now <= last_update moves nothing but the clock.
/// Returns megabits of playback underflow over the interval. The engine
/// advances exactly at pause/resume instants, so `playing` is constant
/// across any integrated interval.
inline Megabits advance_stream(Seconds now, Seconds& last_update,
                               Megabits& remaining, Megabits& buffer_level,
                               Megabits buffer_capacity, Mbps allocation,
                               double playing, Seconds arrival,
                               Seconds playback_end, Mbps view_bandwidth) {
  const Seconds start = last_update;
  const Megabits inflow = allocation * std::max(0.0, now - start);
  remaining = std::max(0.0, remaining - inflow);
  const Seconds play_span =
      std::min(now, playback_end) - std::max(start, arrival);
  const Megabits outflow =
      view_bandwidth * std::max(0.0, play_span) * playing;
  last_update = now;
  return fill_buffer(buffer_level, buffer_capacity, inflow, outflow);
}

/// A stream's three predicted event times; +inf means no event.
struct PredictedTimes {
  Seconds tx = 0.0;    ///< transmission complete
  Seconds full = 0.0;  ///< staging buffer full
  Seconds low = 0.0;   ///< staged cover down to the safety threshold
};

/// The engine's predicted events for a stream sent at \p rate from \p now
/// (DESIGN.md §8). Transmission completes at now + remaining / rate when
/// rate > 0. The buffer fills at rate - drain: a full event is kept when
/// that surplus exceeds 1e-12, the buffer is not full and it fills before
/// transmission ends. A draining stream (surplus below -1e-12) whose level
/// is above `safety_cover` seconds of playback gets a low event when it
/// reaches that threshold before transmission ends, so the intermittent
/// scheduler feeds it again before playback starves; one already at or
/// below the threshold is known-urgent, and waking it again would only
/// churn events. An unkept time is +inf (its division may have produced
/// inf or NaN; the gate discards it). Transmission-complete liveness is
/// the rate's sign, not tx's finiteness: a tiny positive rate can divide
/// to +inf and still mean "transmitting".
inline PredictedTimes predicted_times(
    Seconds now, double safety_cover, Megabits remaining, Mbps rate,
    Megabits level, Megabits capacity, Mbps view_bandwidth, Seconds arrival,
    Seconds playback_end, double playing) {
  constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();
  PredictedTimes times;
  times.tx = rate > 0.0 ? now + remaining / rate : kNever;

  const Mbps surplus =
      rate - drain_rate(now, arrival, playback_end, view_bandwidth, playing);
  const Seconds full_at = now + buffer_headroom(level, capacity) / surplus;
  times.full = (surplus > 1e-12 && !buffer_full(level, capacity) &&
                full_at < times.tx)
                   ? full_at
                   : kNever;

  // The two gates exclude each other (surplus > 1e-12 vs < -1e-12), so
  // evaluating both is an if / else-if.
  const Megabits threshold = safety_cover * view_bandwidth;
  const Seconds low_at = now + (level - threshold) / (0.0 - surplus);
  times.low = (surplus < -1e-12 &&
               level > threshold + StagingBuffer::kLevelTolerance &&
               low_at < times.tx)
                  ? low_at
                  : kNever;
  return times;
}

}  // namespace fluid_detail

/// The predicted events the engine keeps per stream, in the order their
/// sequence numbers are drawn.
enum class Prediction : std::uint8_t { kTxComplete, kBufferFull, kBufferLow };
inline constexpr std::size_t kPredictionKinds = 3;

/// A lane's earliest live prediction. key.time == +inf means none.
struct EarliestPrediction {
  EventKey key{std::numeric_limits<Seconds>::infinity(), 0};
  std::size_t slot = 0;
  Prediction kind = Prediction::kTxComplete;

  bool live() const {
    return key.time != std::numeric_limits<Seconds>::infinity();
  }
};

/// Per-server struct-of-arrays fluid state. Slot i belongs to the request
/// with active_index == i on the owning server.
class FluidLane {
 public:
  FluidLane() = default;
  FluidLane(FluidLane&&) = default;
  FluidLane& operator=(FluidLane&&) = default;
  // Deep copies of the arena: Server is copied by the reference oracle,
  // which clones the engine's freshly built world (lanes empty or not, the
  // copy is an independent arena — no aliasing).
  FluidLane(const FluidLane& other) { *this = other; }
  FluidLane& operator=(const FluidLane& other);

  std::size_t size() const { return size_; }

  void reserve(std::size_t n);

  /// Appends \p request's fluid state as the last slot. Reads the home-
  /// authoritative scalars; call before binding the request to this lane.
  void append(const Request& request);

  /// Removes slot \p index by swap-with-last, mirroring Server::detach's
  /// active-list swap so slot order keeps tracking active order. The slot's
  /// predictions go with it.
  void swap_remove(std::size_t index);

  // --- per-slot access (slot = Request::active_index) -------------------
  Megabits remaining(std::size_t i) const { return remaining_[i]; }
  Mbps allocation(std::size_t i) const { return allocation_[i]; }
  Seconds last_update(std::size_t i) const { return last_update_[i]; }
  Megabits buffer_level(std::size_t i) const { return buffer_level_[i]; }
  Mbps receive_bandwidth(std::size_t i) const { return receive_bandwidth_[i]; }

  // Write-through sinks for the home-authoritative fields (Request-driven).
  void set_allocation(std::size_t i, Mbps rate) { allocation_[i] = rate; }
  void set_paused(std::size_t i, bool paused) {
    playing_[i] = paused ? 0.0 : 1.0;
  }
  void set_playback_end(std::size_t i, Seconds end) { playback_end_[i] = end; }

  /// Advances one slot (Request::advance's path). Returns playback
  /// underflow (Mb).
  Megabits advance_one(std::size_t i, Seconds now) {
    return fluid_detail::advance_stream(
        now, last_update_[i], remaining_[i], buffer_level_[i],
        buffer_capacity_[i], allocation_[i], playing_[i], arrival_[i],
        playback_end_[i], view_bandwidth_[i]);
  }

  // Per-slot fluid_detail formulas for the intermittent scheduler's walks.
  bool buffer_full(std::size_t i) const {
    return fluid_detail::buffer_full(buffer_level_[i], buffer_capacity_[i]);
  }
  Seconds buffer_cover(std::size_t i) const {
    return fluid_detail::buffer_cover(buffer_level_[i], view_bandwidth_[i]);
  }
  Mbps drain_rate(std::size_t i, Seconds now) const {
    return fluid_detail::drain_rate(now, arrival_[i], playback_end_[i],
                                    view_bandwidth_[i], playing_[i]);
  }
  Mbps absorption_cap(std::size_t i, Seconds now) const {
    return fluid_detail::absorption_cap(
        drain_rate(i, now),
        fluid_detail::buffer_headroom(buffer_level_[i], buffer_capacity_[i]),
        receive_bandwidth_[i]);
  }

  /// Slot \p i's urgency latch (fluid_detail::urgency_latch), 1.0 or 0.0.
  /// Appended from Request::workahead_urgent; the intermittent scheduler
  /// writes both on a flip, so the request carries it across migration.
  double urgent(std::size_t i) const { return urgent_[i]; }
  void set_urgent(std::size_t i, double urgent) { urgent_[i] = urgent; }

  /// Slot \p i's EFTF/LFTF sort key at \p now.
  Seconds projected_finish(std::size_t i, Seconds now) const {
    return fluid_detail::projected_finish(now, remaining_[i],
                                          view_bandwidth_[i]);
  }

  /// Slot \p i's three predicted event times at \p now (+inf = none);
  /// \p safety_cover is SimulationConfig::intermittent_safety_cover.
  fluid_detail::PredictedTimes predicted_times(std::size_t i, Seconds now,
                                               double safety_cover) const {
    return fluid_detail::predicted_times(
        now, safety_cover, remaining_[i], allocation_[i], buffer_level_[i],
        buffer_capacity_[i], view_bandwidth_[i], arrival_[i],
        playback_end_[i], playing_[i]);
  }

  /// Aggregate outcome of one batched advance.
  struct BatchResult {
    /// Σ fluid_detail::metered over the batch: what one
    /// Metrics::record_transmission call per stream would add, summed
    /// locally.
    Megabits transmitted_in_window = 0.0;
    std::size_t advanced = 0;  ///< streams with dt > 0
    bool any_underflow = false;
  };

  /// Batch kernel: advance_one for every slot to \p now in one
  /// vectorizable loop free of per-stream call order; only the metering is
  /// summed per batch instead of per stream. \p underflow_scratch is
  /// resized to size() and receives each slot's playback underflow (0 for
  /// almost every stream — the engine walks it only when the result says
  /// any_underflow).
  BatchResult advance_batch(Seconds now, Seconds window_start,
                            Seconds window_end,
                            std::vector<Megabits>& underflow_scratch);

  // --- scheduler-facing batch passes ------------------------------------
  // The allocation hot loops (sched/scheduler.cpp, sched/finish_order.cpp)
  // and the engine's predicted-event retiming evaluate per-stream formulas
  // on every recompute; walking the arrays beats chasing Request pointers.
  // Each pass applies the fluid_detail function to every slot, so a batch
  // output equals the per-slot accessor's result for that slot.

  /// Fills \p rates with each slot's fluid_detail::minimum_rate and returns
  /// their sum in slot order.
  Mbps sum_minimum_rates(std::vector<Mbps>& rates) const;

  /// Appends to \p out the slots that can absorb workahead
  /// (fluid_detail::workahead_eligible), in slot order.
  void eligible_slots(std::vector<std::size_t>& out) const;

  /// Writes every slot's projected_finish(i, now) into keys[0..size()) in
  /// one vectorized pass. \p keys is resized to size().
  void fill_projected_finish(Seconds now, std::vector<Seconds>& keys) const;

  /// Batched predicted-event retiming: predicted_times(i, now,
  /// safety_cover) for every slot, split into three arrays resized to
  /// size().
  void fill_predicted_times(Seconds now, double safety_cover,
                            std::vector<Seconds>& tx_at,
                            std::vector<Seconds>& full_at,
                            std::vector<Seconds>& low_at) const;

  // --- predictions (DESIGN.md §8) --------------------------------------

  /// Slot \p i's stored prediction of \p kind; time +inf when none.
  EventKey prediction(std::size_t i, Prediction kind) const {
    const auto k = static_cast<std::size_t>(kind);
    return EventKey{prediction_time_[k][i], prediction_seq_[k][i]};
  }

  /// Stores a kept prediction. The caller has applied the clock clamp and
  /// drawn key.seq from the owning event queue.
  void set_prediction(std::size_t i, Prediction kind, EventKey key) {
    const auto k = static_cast<std::size_t>(kind);
    const bool was_live = prediction_time_[k][i] != kNoPrediction;
    const bool live = key.time != kNoPrediction;
    if (live && !was_live) ++live_[k];
    if (was_live && !live) --live_[k];
    prediction_time_[k][i] = key.time;
    prediction_seq_[k][i] = key.seq;
    if (stale_) return;
    drop_earliest(i, kind);
    if (live) offer_earliest(EarliestPrediction{key, i, kind});
  }

  /// Drops slot \p i's prediction of \p kind (no-op when it has none).
  void clear_prediction(std::size_t i, Prediction kind) {
    const auto k = static_cast<std::size_t>(kind);
    if (prediction_time_[k][i] != kNoPrediction) --live_[k];
    prediction_time_[k][i] = kNoPrediction;
    if (!stale_) drop_earliest(i, kind);
  }

  /// Suspends the incremental upkeep until the next earliest_prediction(),
  /// which then rescans. Cheaper when most of the lane is about to change.
  void defer_earliest() { stale_ = true; }

  /// The minimum (time, seq) over every live prediction in the lane.
  /// Rescans only when upkeep was deferred, or when the argmin is gone and
  /// no key below bound_ has replaced it.
  const EarliestPrediction& earliest_prediction() {
    if (stale_ || (!earliest_.live() && bound_.time != kNoPrediction)) {
      rescan_earliest();
    }
    return earliest_;
  }

 private:
  static constexpr Seconds kNoPrediction =
      std::numeric_limits<Seconds>::infinity();

  /// Number of parallel arrays in the arena (hot-to-cold order below).
  static constexpr std::size_t kArrays = 11 + 2 * kPredictionKinds;

  void drop_earliest(std::size_t i, Prediction kind) {
    if (earliest_.slot == i && earliest_.kind == kind) {
      earliest_.key = EventKey{kNoPrediction, 0};
    }
  }

  /// Admits a live key below bound_ as the argmin. A key that does not
  /// beat the argmin, or the argmin it displaces, becomes the new bound_.
  void offer_earliest(const EarliestPrediction& c) {
    if (!(c.key < bound_)) return;
    if (!earliest_.live()) {
      earliest_ = c;
    } else if (c.key < earliest_.key) {
      bound_ = earliest_.key;
      earliest_ = c;
    } else {
      bound_ = c.key;
    }
  }

  /// Full scan for the earliest live prediction.
  void rescan_earliest();

  /// Grows the arena to hold at least \p min_capacity slots per array and
  /// rebinds the named views. Stride is rounded to 8 doubles so every
  /// array keeps 64-byte alignment.
  void grow(std::size_t min_capacity);

  /// Rebinds the named views to an arena of \p capacity slots per array.
  void bind_views(unsigned char* base, std::size_t capacity);

  struct AlignedFree {
    void operator()(unsigned char* p) const {
      ::operator delete[](p, std::align_val_t{64});
    }
  };

  std::size_t size_ = 0;
  std::size_t capacity_ = 0;  ///< slots per array; every element is 8 bytes
  std::unique_ptr<unsigned char[], AlignedFree> storage_;

  // Named views into storage_ at offsets k * capacity_, in arena order.
  // Hot, kernel-mutated:
  double* last_update_ = nullptr;
  double* remaining_ = nullptr;
  double* buffer_level_ = nullptr;
  // Hot, kernel-read:
  double* allocation_ = nullptr;
  double* buffer_capacity_ = nullptr;
  double* view_bandwidth_ = nullptr;
  double* arrival_ = nullptr;
  double* playback_end_ = nullptr;
  /// Playback-drain mask: 1.0 while viewing, 0.0 while paused. Stored as a
  /// double so the formulas apply it as a multiply and the kernel loops
  /// stay free of mixed-width loads that block vectorization.
  double* playing_ = nullptr;
  // Cold tail: read only by the schedulers, never by the kernels.
  double* receive_bandwidth_ = nullptr;
  /// Intermittent-scheduler urgency latch, 1.0/0.0.
  double* urgent_ = nullptr;
  /// Stored prediction keys, indexed by Prediction.
  double* prediction_time_[kPredictionKinds] = {};
  std::uint64_t* prediction_seq_[kPredictionKinds] = {};

  /// Live predictions per kind; a rescan skips kinds with none.
  std::size_t live_[kPredictionKinds] = {};
  /// The smallest live key, when known (key.time +inf otherwise). Every
  /// other live key is at least bound_; bound_ == (+inf, 0) means there is
  /// none. Keeping the bound lets a fired or retimed argmin be replaced by
  /// any new key below it without a rescan.
  EarliestPrediction earliest_;
  EventKey bound_{kNoPrediction, 0};
  bool stale_ = false;  ///< upkeep deferred; earliest_ and bound_ are stale
};

}  // namespace vodsim
