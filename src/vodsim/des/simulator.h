#pragma once

/// \file simulator.h
/// \brief Discrete-event simulator: clock + event queue + run loop.
///
/// Handlers may schedule and cancel further events (reentrancy is the normal
/// mode of operation). Time never goes backwards: scheduling before now()
/// clamps to now(), so a handler can safely request "immediately after this
/// event" follow-ups.

#include <cstdint>
#include <functional>
#include <utility>

#include "vodsim/des/event_queue.h"
#include "vodsim/util/units.h"

namespace vodsim {

class Simulator {
 public:
  Simulator() = default;

  /// Current simulation time (seconds). Starts at 0.
  Seconds now() const { return now_; }

  /// Schedules \p fn at absolute time max(time, now()).
  EventId schedule_at(Seconds time, EventFn fn);

  /// Schedules \p fn at now() + max(delay, 0).
  EventId schedule_in(Seconds delay, EventFn fn);

  /// Cancels a pending event (no-op on invalid/fired handles).
  void cancel(EventId id);

  /// Retimes a pending event to absolute time max(time, now()) in place —
  /// same clock clamp as schedule_at, same handle, same handler. Returns
  /// false (no-op) on invalid/fired handles; the caller schedules afresh.
  bool reschedule_at(Seconds time, EventId id);

  /// Draws the next event sequence number without scheduling (see
  /// EventQueue::draw_seq). Callers that keep their own pending keys use it
  /// to stay in the global (time, seq) order.
  std::uint64_t draw_seq() { return queue_.draw_seq(); }

  /// Schedules \p fn under an explicit key. The caller applies the clock
  /// clamp itself: key.time must not precede now().
  EventId schedule_keyed(EventKey key, EventFn fn);

  /// Re-keys a pending event in place (same precondition as
  /// schedule_keyed). Returns false (no-op) on invalid/fired handles.
  bool rekey(EventId id, EventKey key);

  /// The key of a pending event; false on invalid/fired handles.
  bool pending_key(EventId id, EventKey& key) const {
    return queue_.pending_key(id, key);
  }

  /// Fires the earliest pending event. Returns false if none remain.
  bool step();

  /// Runs events with time <= horizon, then advances the clock exactly to
  /// horizon (even if the queue empties earlier).
  void run_until(Seconds horizon);

  /// Runs until the queue is empty.
  void run();

  /// Number of events executed so far (diagnostic/bench metric).
  std::uint64_t executed_count() const { return executed_; }

  /// Live pending events.
  std::size_t pending_count() const { return queue_.size(); }

  /// Pre-sizes the event queue for \p events concurrently pending events.
  void reserve_events(std::size_t events) { queue_.reserve(events); }

  /// Observer invoked after every executed event, with the event's time.
  /// At most one hook; empty (the default) disables it, leaving one branch
  /// on the hot path. Used by the paranoid-mode invariant auditor.
  using PostEventHook = std::function<void(Seconds)>;
  void set_post_event_hook(PostEventHook hook) {
    post_event_hook_ = std::move(hook);
  }

 private:
  EventQueue queue_;
  Seconds now_ = 0.0;
  std::uint64_t executed_ = 0;
  PostEventHook post_event_hook_;
};

}  // namespace vodsim
