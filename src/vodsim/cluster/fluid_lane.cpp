#include "vodsim/cluster/fluid_lane.h"

#include <cassert>
#include <cstring>

#include "vodsim/cluster/request.h"

namespace vodsim {

namespace {

/// Shared attribute set for the batch kernels. Free functions because GCC
/// honours __restrict on function parameters but not on locals initialised
/// from member loads — without it, the pointer count needs more runtime
/// alias checks than the vectorizer will version
/// (--param vect-max-version-for-alias-checks). __restrict is sound: every
/// pointer addresses a distinct arena array (or the engine-owned scratch),
/// so no two can overlap. noinline keeps the restrict qualifiers from being
/// dropped when a body is folded into its caller; one call per batch is
/// noise next to the loop.
///
/// target_clones emits an SSE2 baseline plus AVX2 and AVX-512F clones
/// picked at load time, doubling (and doubling again) the vector width on
/// hosts that have them. Safe for both reproducibility and bit-identity:
/// dispatch is fixed per machine, per-lane vaddpd/vmulpd/vmaxpd/vdivpd
/// semantics equal their scalar counterparts at any width, and this TU is
/// built with -ffp-contract=off (see src/CMakeLists.txt) so no clone can
/// fuse multiply-adds into FMAs that round differently from the scalar
/// path.
///
/// ThreadSanitizer builds (-fsanitize=thread) take the plain baseline body:
/// the clones' ifunc resolvers run before TSan's runtime is initialized and
/// crash at load, so every test binary would segfault during gtest
/// discovery. The clones are bit-identical to the baseline, so this changes
/// speed only.
#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(__SANITIZE_THREAD__)
#if __has_attribute(target_clones)
#define VODSIM_BATCH_KERNEL_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#endif
#endif
#ifndef VODSIM_BATCH_KERNEL_CLONES
#define VODSIM_BATCH_KERNEL_CLONES
#endif

/// The lane arena guarantees 64-byte alignment for every array it owns
/// (FluidLane::grow); telling the vectorizer saves the peel/remainder
/// scalar loops. Alignment hints change codegen only, never FP results.
inline double* assume_lane_aligned(double* p) {
  return static_cast<double*>(__builtin_assume_aligned(p, 64));
}
inline const double* assume_lane_aligned(const double* p) {
  return static_cast<const double*>(__builtin_assume_aligned(p, 64));
}

/// The vectorized heart of FluidLane::advance_batch: advance_stream per
/// slot, no reductions (see the caller for why the metering sum is a
/// separate pass). underflow_out is the engine's std::vector scratch and
/// carries no alignment guarantee.
VODSIM_BATCH_KERNEL_CLONES
__attribute__((noinline)) void advance_states(
    std::size_t n, Seconds now, Seconds* __restrict last_update,
    Megabits* __restrict remaining, Megabits* __restrict buffer_level,
    const Megabits* __restrict buffer_capacity,
    const Mbps* __restrict allocation, const Mbps* __restrict view_bandwidth,
    const Seconds* __restrict arrival, const Seconds* __restrict playback_end,
    const double* __restrict playing, Megabits* __restrict underflow_out) {
  last_update = assume_lane_aligned(last_update);
  remaining = assume_lane_aligned(remaining);
  buffer_level = assume_lane_aligned(buffer_level);
  buffer_capacity = assume_lane_aligned(buffer_capacity);
  allocation = assume_lane_aligned(allocation);
  view_bandwidth = assume_lane_aligned(view_bandwidth);
  arrival = assume_lane_aligned(arrival);
  playback_end = assume_lane_aligned(playback_end);
  playing = assume_lane_aligned(playing);
  for (std::size_t i = 0; i < n; ++i) {
    underflow_out[i] = fluid_detail::advance_stream(
        now, last_update[i], remaining[i], buffer_level[i], buffer_capacity[i],
        allocation[i], playing[i], arrival[i], playback_end[i],
        view_bandwidth[i]);
  }
}

/// Batched EFTF/LFTF sort keys: projected_finish per slot.
VODSIM_BATCH_KERNEL_CLONES
__attribute__((noinline)) void projected_finish_keys(
    std::size_t n, Seconds now, const Megabits* __restrict remaining,
    const Mbps* __restrict view_bandwidth, Seconds* __restrict keys) {
  remaining = assume_lane_aligned(remaining);
  view_bandwidth = assume_lane_aligned(view_bandwidth);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = fluid_detail::projected_finish(now, remaining[i],
                                             view_bandwidth[i]);
  }
}

/// Batched predicted-event retiming: predicted_times per slot.
VODSIM_BATCH_KERNEL_CLONES
__attribute__((noinline)) void predicted_event_times(
    std::size_t n, Seconds now, double safety_cover,
    const Megabits* __restrict remaining, const Mbps* __restrict allocation,
    const Megabits* __restrict buffer_level,
    const Megabits* __restrict buffer_capacity,
    const Mbps* __restrict view_bandwidth, const Seconds* __restrict arrival,
    const Seconds* __restrict playback_end, const double* __restrict playing,
    Seconds* __restrict tx_out, Seconds* __restrict full_out,
    Seconds* __restrict low_out) {
  remaining = assume_lane_aligned(remaining);
  allocation = assume_lane_aligned(allocation);
  buffer_level = assume_lane_aligned(buffer_level);
  buffer_capacity = assume_lane_aligned(buffer_capacity);
  view_bandwidth = assume_lane_aligned(view_bandwidth);
  arrival = assume_lane_aligned(arrival);
  playback_end = assume_lane_aligned(playback_end);
  playing = assume_lane_aligned(playing);
  for (std::size_t i = 0; i < n; ++i) {
    const fluid_detail::PredictedTimes times = fluid_detail::predicted_times(
        now, safety_cover, remaining[i], allocation[i], buffer_level[i],
        buffer_capacity[i], view_bandwidth[i], arrival[i], playback_end[i],
        playing[i]);
    tx_out[i] = times.tx;
    full_out[i] = times.full;
    low_out[i] = times.low;
  }
}

}  // namespace

FluidLane& FluidLane::operator=(const FluidLane& other) {
  if (this == &other) return *this;
  size_ = 0;  // nothing to preserve; grow copies only size_ slots
  if (other.size_ > capacity_) grow(other.size_);
  // Every array is 8-byte elements at stride capacity_, so arrays copy as
  // bytes whatever their element type.
  for (std::size_t k = 0; k < kArrays && other.size_ > 0; ++k) {
    std::memcpy(storage_.get() + k * capacity_ * 8,
                other.storage_.get() + k * other.capacity_ * 8,
                other.size_ * 8);
  }
  size_ = other.size_;
  std::copy(other.live_, other.live_ + kPredictionKinds, live_);
  earliest_ = other.earliest_;
  bound_ = other.bound_;
  stale_ = other.stale_;
  return *this;
}

void FluidLane::bind_views(unsigned char* base, std::size_t capacity) {
  double* views[kArrays];
  for (std::size_t k = 0; k < kArrays; ++k) {
    views[k] = reinterpret_cast<double*>(base + k * capacity * 8);
  }
  last_update_ = views[0];
  remaining_ = views[1];
  buffer_level_ = views[2];
  allocation_ = views[3];
  buffer_capacity_ = views[4];
  view_bandwidth_ = views[5];
  arrival_ = views[6];
  playback_end_ = views[7];
  playing_ = views[8];
  receive_bandwidth_ = views[9];
  urgent_ = views[10];
  for (std::size_t k = 0; k < kPredictionKinds; ++k) {
    prediction_time_[k] = views[11 + k];
    prediction_seq_[k] = reinterpret_cast<std::uint64_t*>(
        base + (11 + kPredictionKinds + k) * capacity * 8);
  }
}

void FluidLane::grow(std::size_t min_capacity) {
  std::size_t cap = std::max<std::size_t>(capacity_ * 2, 64);
  while (cap < min_capacity) cap *= 2;
  // Stride in whole cache lines: every array starts 64-byte aligned.
  cap = (cap + 7) & ~static_cast<std::size_t>(7);

  unsigned char* const raw = static_cast<unsigned char*>(
      ::operator new[](kArrays * cap * 8, std::align_val_t{64}));
  std::unique_ptr<unsigned char[], AlignedFree> fresh(raw);
  for (std::size_t k = 0; k < kArrays && size_ > 0; ++k) {
    std::memcpy(raw + k * cap * 8, storage_.get() + k * capacity_ * 8,
                size_ * 8);
  }

  storage_ = std::move(fresh);
  capacity_ = cap;
  bind_views(raw, cap);
}

void FluidLane::reserve(std::size_t n) {
  if (n > capacity_) grow(n);
}

void FluidLane::append(const Request& request) {
  if (size_ == capacity_) grow(size_ + 1);
  const std::size_t i = size_;
  last_update_[i] = request.last_update();
  remaining_[i] = request.remaining();
  buffer_level_[i] = request.buffer_level();
  allocation_[i] = request.allocation();
  buffer_capacity_[i] = request.buffer_capacity();
  view_bandwidth_[i] = request.view_bandwidth();
  arrival_[i] = request.arrival();
  playback_end_[i] = request.playback_end();
  playing_[i] = request.viewing_paused() ? 0.0 : 1.0;
  receive_bandwidth_[i] = request.receive_bandwidth();
  urgent_[i] = request.workahead_urgent ? 1.0 : 0.0;
  for (std::size_t k = 0; k < kPredictionKinds; ++k) {
    prediction_time_[k][i] = kNoPrediction;
    prediction_seq_[k][i] = 0;
  }
  ++size_;
}

void FluidLane::swap_remove(std::size_t index) {
  assert(index < size_);
  const std::size_t last = size_ - 1;
  if (!stale_) {
    if (earliest_.slot == index) {
      earliest_.key = EventKey{kNoPrediction, 0};  // leaves with its slot
    } else if (earliest_.slot == last) {
      earliest_.slot = index;
    }
  }
  last_update_[index] = last_update_[last];
  remaining_[index] = remaining_[last];
  buffer_level_[index] = buffer_level_[last];
  allocation_[index] = allocation_[last];
  buffer_capacity_[index] = buffer_capacity_[last];
  view_bandwidth_[index] = view_bandwidth_[last];
  arrival_[index] = arrival_[last];
  playback_end_[index] = playback_end_[last];
  playing_[index] = playing_[last];
  receive_bandwidth_[index] = receive_bandwidth_[last];
  urgent_[index] = urgent_[last];
  for (std::size_t k = 0; k < kPredictionKinds; ++k) {
    if (prediction_time_[k][index] != kNoPrediction) --live_[k];
    prediction_time_[k][index] = prediction_time_[k][last];
    prediction_seq_[k][index] = prediction_seq_[k][last];
  }
  --size_;
}

void FluidLane::rescan_earliest() {
  earliest_ = EarliestPrediction{};
  bound_ = EventKey{kNoPrediction, 0};
  stale_ = false;
  for (std::size_t k = 0; k < kPredictionKinds; ++k) {
    if (live_[k] == 0) continue;
    const Seconds* const time = prediction_time_[k];
    const std::uint64_t* const seq = prediction_seq_[k];
    for (std::size_t i = 0; i < size_; ++i) {
      // Most keys lie above the bound; dead entries hold +inf, which never
      // beats it.
      if (time[i] > bound_.time) continue;
      offer_earliest(EarliestPrediction{EventKey{time[i], seq[i]}, i,
                                         static_cast<Prediction>(k)});
    }
  }
}

FluidLane::BatchResult FluidLane::advance_batch(
    Seconds now, Seconds window_start, Seconds window_end,
    std::vector<Megabits>& underflow_scratch) {
  const std::size_t n = size_;
  // resize, not assign: advance_states stores every slot unconditionally,
  // so pre-zeroing would be a wasted O(n) pass.
  underflow_scratch.resize(n);

  BatchResult result;
  const Seconds* const last_update = last_update_;
  const Mbps* const allocation = allocation_;
  const Megabits* const underflow_out = underflow_scratch.data();

  // Three passes, because GCC refuses to vectorize a loop carrying FP
  // sum/max reductions without value-changing reassociation: a light scalar
  // pass does the metering sum and advanced count (reading only
  // last_update/allocation, both still pre-update), the per-stream state
  // arithmetic runs reduction-free and vectorized in advance_states, and a
  // final scan folds the scratch into any_underflow. The metering terms are
  // summed in slot order, and the passes touch disjoint values.
  Megabits transmitted = 0.0;
  std::size_t advanced = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Seconds start = last_update[i];
    advanced += static_cast<std::size_t>(now - start > 0.0);
    transmitted += fluid_detail::metered(allocation[i], start, now,
                                         window_start, window_end);
  }

  advance_states(n, now, last_update_, remaining_, buffer_level_,
                 buffer_capacity_, allocation_, view_bandwidth_, arrival_,
                 playback_end_, playing_, underflow_scratch.data());

  Megabits max_underflow = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_underflow = std::max(max_underflow, underflow_out[i]);
  }
  result.transmitted_in_window = transmitted;
  result.advanced = advanced;
  result.any_underflow = max_underflow > 0.0;
  return result;
}

Mbps FluidLane::sum_minimum_rates(std::vector<Mbps>& rates) const {
  const std::size_t n = size_;
  rates.resize(n);
  Mbps committed = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = fluid_detail::minimum_rate(buffer_level_[i], buffer_capacity_[i],
                                          view_bandwidth_[i], playing_[i]);
    committed += rates[i];
  }
  return committed;
}

void FluidLane::eligible_slots(std::vector<std::size_t>& out) const {
  const std::size_t n = size_;
  for (std::size_t i = 0; i < n; ++i) {
    if (fluid_detail::workahead_eligible(buffer_level_[i], buffer_capacity_[i],
                                         receive_bandwidth_[i],
                                         view_bandwidth_[i], remaining_[i])) {
      out.push_back(i);
    }
  }
}

void FluidLane::fill_projected_finish(Seconds now,
                                      std::vector<Seconds>& keys) const {
  keys.resize(size_);
  projected_finish_keys(size_, now, remaining_, view_bandwidth_, keys.data());
}

void FluidLane::fill_predicted_times(Seconds now, double safety_cover,
                                     std::vector<Seconds>& tx_at,
                                     std::vector<Seconds>& full_at,
                                     std::vector<Seconds>& low_at) const {
  const std::size_t n = size_;
  tx_at.resize(n);
  full_at.resize(n);
  low_at.resize(n);
  predicted_event_times(n, now, safety_cover, remaining_, allocation_,
                        buffer_level_, buffer_capacity_, view_bandwidth_,
                        arrival_, playback_end_, playing_, tx_at.data(),
                        full_at.data(), low_at.data());
}

}  // namespace vodsim
