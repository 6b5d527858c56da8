#include "vodsim/cluster/server.h"

#include <algorithm>
#include <cassert>

namespace vodsim {

namespace {
// Bandwidth comparisons tolerate fluid-model rounding: one part in 1e9 of a
// megabit per second.
constexpr Mbps kBandwidthTolerance = 1e-9;

// Ceiling on the first attach's reservation (slots in the active list and
// the lane arena, ~150 B each). The reserve only saves regrowth; a server
// busier than this still grows by doubling.
constexpr std::size_t kMaxInitialReserve = std::size_t{1} << 14;
}  // namespace

Server::Server(ServerId id, Mbps bandwidth, Megabits storage)
    : id_(id), bandwidth_(bandwidth), storage_capacity_(storage) {
  assert(bandwidth > 0.0);
  assert(storage >= 0.0);
}

bool Server::add_replica(const Video& video) {
  if (holds(video.id)) return false;
  if (video.size() > storage_free() + kBandwidthTolerance) return false;
  if (replica_bitmap_.size() <= static_cast<std::size_t>(video.id)) {
    replica_bitmap_.resize(static_cast<std::size_t>(video.id) + 1, false);
  }
  replica_bitmap_[static_cast<std::size_t>(video.id)] = true;
  replicas_.push_back(video.id);
  storage_used_ += video.size();
  return true;
}

bool Server::holds(VideoId video) const {
  const auto index = static_cast<std::size_t>(video);
  return index < replica_bitmap_.size() && replica_bitmap_[index];
}

bool Server::can_admit(Mbps view_bandwidth) const {
  return serviceable() && committed_ + reserved_ + view_bandwidth <=
                              effective_bandwidth() + kBandwidthTolerance;
}

void Server::reserve_bandwidth(Mbps amount) {
  assert(amount >= 0.0);
  assert(committed_ + reserved_ + amount <=
         effective_bandwidth() + kBandwidthTolerance);
  reserved_ += amount;
}

void Server::release_reservation(Mbps amount) {
  assert(amount >= 0.0);
  reserved_ -= amount;
  if (reserved_ < 0.0) reserved_ = 0.0;  // fp slop
}

void Server::attach(Request& request, bool enforce_capacity) {
  assert(!enforce_capacity || can_admit(request.view_bandwidth()));
  (void)enforce_capacity;
  if (active_.capacity() == active_.size()) {
    // Reserve for as many streams as the link can carry at this view rate
    // (plus slack for buffer-aware over-commitment), so steady-state
    // attach/detach churn never reallocates. The fit is clipped in double
    // before the conversion, which a huge link would overflow.
    const double fit =
        std::min(bandwidth_ / std::max(request.view_bandwidth(), 1e-9),
                 static_cast<double>(kMaxInitialReserve));
    const std::size_t want = std::max(
        {active_.size() * 2, static_cast<std::size_t>(fit) + 8, std::size_t{16}});
    active_.reserve(want);
    lane_.reserve(want);
  }
  request.active_index = active_.size();
  active_.push_back(&request);
  lane_.append(request);
  request.attach_lane(&lane_);
  committed_ += request.view_bandwidth();
  ++total_attached_;
}

void Server::detach(Request& request) {
  const std::size_t index = request.active_index;
  assert(index < active_.size());
  assert(active_[index] == &request);
  // Copy the lane-authoritative fields home before the slot is recycled,
  // then mirror the active-list swap in the lane so the swapped request's
  // slot keeps matching its (updated) active_index.
  request.detach_lane();
  lane_.swap_remove(index);
  active_[index] = active_.back();
  active_[index]->active_index = index;
  active_.pop_back();
  committed_ -= request.view_bandwidth();
  if (committed_ < 0.0) committed_ = 0.0;  // fp slop after many detaches
}

}  // namespace vodsim
