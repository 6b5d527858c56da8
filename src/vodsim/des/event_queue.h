#pragma once

/// \file event_queue.h
/// \brief Time-ordered event queue: O(log n) schedule/pop/cancel/retime,
/// zero steady-state heap allocations.
///
/// Handlers live in a generation-tagged slab: an EventId encodes a slot
/// index plus the slot's generation at schedule time, so schedule, cancel
/// and reschedule validation are all array indexing — no hash map, no
/// per-event node allocation. A slot's generation is bumped every time it is
/// freed, which makes stale handles (double cancel, cancel after fire)
/// harmless no-ops.
///
/// Every live slot tracks its heap position (the heap is hand-sifted rather
/// than run through std::push_heap/pop_heap precisely so moves can maintain
/// that index). The index buys two things:
///   - reschedule() and rekey() move an event in place — rewrite the
///     entry's (time, seq) key, one O(log n) sift, no slot churn — instead
///     of a cancel+insert pair;
///   - cancel() removes its entry eagerly (move the last entry into the
///     hole, sift). The heap therefore only ever holds live entries: pop
///     never skips dead ones, no compaction pass is needed, memory is
///     proportional to pending events, and position maintenance during
///     sifts is a single unconditional store.
///
/// Ordering is deterministic: equal-time events fire in schedule order
/// (stable tie-break on a monotonically increasing sequence number), which
/// keeps whole simulations reproducible from a seed.
///
/// Keyed entries: a caller that tracks many pending times of its own can
/// draw sequence numbers without scheduling (draw_seq) and keep a single
/// entry keyed by the earliest of them (schedule_keyed / rekey). Because
/// pop order depends only on (time, seq), such an entry fires exactly when
/// the earliest of the events it stands for would have. The engine uses it
/// for one predicted-event timer per server (DESIGN.md §8).

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "vodsim/des/event_callback.h"
#include "vodsim/util/units.h"

namespace vodsim {

/// Opaque handle to a scheduled event; 0 is never a valid id.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

/// An event's place in the fire order: time first, then sequence number.
struct EventKey {
  Seconds time;
  std::uint64_t seq;

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  friend bool operator==(const EventKey&, const EventKey&) = default;
};

/// Callback invoked when an event fires. Receives the firing time.
using EventFn = EventCallback;

class EventQueue {
 public:
  EventQueue() = default;

  /// Schedules \p fn at absolute time \p time. Returns a handle usable with
  /// cancel(). Times may be scheduled in any order, including in the past
  /// relative to other pending events (the caller — Simulator — enforces
  /// causality with respect to the clock).
  EventId schedule(Seconds time, EventFn fn) {
    return insert(EventKey{time, draw_seq()}, std::move(fn));
  }

  /// Draws the next sequence number without scheduling anything, exactly
  /// as schedule() would consume it. Gaps in the counter are harmless.
  std::uint64_t draw_seq() { return ++scheduled_; }

  /// Schedules \p fn under an explicit key whose seq came from draw_seq().
  /// Consumes no sequence number.
  EventId schedule_keyed(EventKey key, EventFn fn) {
    assert(key.seq != 0 && key.seq <= scheduled_);
    return insert(key, std::move(fn));
  }

  /// Re-keys a pending event to an explicit key (seq from draw_seq()) in
  /// place, sifting up or down. Consumes no sequence number. Returns false
  /// (and does nothing) for dead or stale ids.
  bool rekey(EventId id, EventKey key) {
    assert(key.seq != 0 && key.seq <= scheduled_);
    const std::size_t pos = live_pos(id);
    if (pos == kNoPos) return false;
    set_key(pos, key);
    return true;
  }

  /// The key of a pending event. Returns false for dead or stale ids.
  bool pending_key(EventId id, EventKey& key) const {
    const std::size_t pos = live_pos(id);
    if (pos == kNoPos) return false;
    key = EventKey{heap_[pos].time, heap_[pos].seq};
    return true;
  }

  /// Retimes a pending event in place: one O(log n) sift, no slot churn.
  /// The handle stays valid and the handler is untouched.
  ///
  /// Consumes one sequence number, so the retimed event ties with
  /// equal-time events exactly as if it had been cancelled and freshly
  /// scheduled — pop order is uniquely (time, seq)-determined, which is what
  /// the determinism contract pins; the heap's internal layout is free to
  /// differ. Returns false (and does nothing) for dead or stale ids; the
  /// caller schedules a fresh event instead.
  bool reschedule(EventId id, Seconds time) {
    const std::size_t pos = live_pos(id);
    if (pos == kNoPos) return false;
    set_key(pos, EventKey{time, draw_seq()});
    return true;
  }

  /// Cancels a pending event in O(log n), removing its heap entry in place;
  /// no-op if the event already fired or was cancelled (including
  /// kInvalidEventId and stale ids — the slot generation no longer matches).
  void cancel(EventId id) {
    const std::size_t pos = live_pos(id);
    if (pos == kNoPos) return;
    const std::uint32_t slot = heap_[pos].slot;
    remove_at(pos);
    release(slot);
  }

  /// True if no pending events remain.
  bool empty() const { return heap_.empty(); }

  /// Number of pending events.
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event. Requires !empty().
  Seconds peek_time() const {
    assert(!heap_.empty());
    return heap_.front().time;
  }

  /// Removes and returns the earliest pending event (handler + time).
  /// Requires !empty().
  std::pair<Seconds, EventFn> pop() {
    assert(!heap_.empty());
    const HeapEntry top = heap_.front();
    remove_at(0);
    Slot& entry = slots_[top.slot];
    assert(entry.live && entry.generation == top.generation);
    EventFn fn = std::move(entry.fn);
    release(top.slot);
    return {top.time, std::move(fn)};
  }

  /// Pre-sizes the slab and heap for \p events concurrently pending events,
  /// so the warmup phase does not grow them incrementally.
  void reserve(std::size_t events) {
    heap_.reserve(events);
    slots_.reserve(events);
    free_slots_.reserve(events);
  }

  /// Sequence numbers drawn so far: one per schedule(), reschedule() or
  /// draw_seq() call (diagnostic).
  std::uint64_t scheduled_count() const { return scheduled_; }

  /// Heap entries currently held (diagnostic). Eager removal keeps this
  /// identical to size(); tests pin that no dead ballast accumulates.
  std::size_t heap_entries() const { return heap_.size(); }

 private:
  struct HeapEntry {
    Seconds time;
    std::uint64_t seq;  ///< global schedule order: the equal-time tie-break
    std::uint32_t slot;
    std::uint32_t generation;  ///< redundant with slot (asserts only)
  };

  /// Min-heap comparator: true when \p a fires after \p b.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  struct Slot {
    EventFn fn;
    std::uint32_t generation = 0;
    std::uint32_t heap_pos = 0;  ///< current heap index; valid while live
    bool live = false;
  };

  static constexpr std::size_t kNoPos = ~static_cast<std::size_t>(0);

  /// Heap position of the live event \p id, or kNoPos for invalid, dead or
  /// stale ids.
  std::size_t live_pos(EventId id) const {
    if (id == kInvalidEventId) return kNoPos;
    const std::uint32_t slot = id_slot(id);
    if (slot >= slots_.size()) return kNoPos;
    const Slot& entry = slots_[slot];
    if (!entry.live || entry.generation != id_generation(id)) return kNoPos;
    assert(entry.heap_pos < heap_.size() &&
           heap_[entry.heap_pos].slot == slot &&
           heap_[entry.heap_pos].generation == entry.generation);
    return entry.heap_pos;
  }

  [[gnu::always_inline]] EventId insert(EventKey key, EventFn&& fn) {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& entry = slots_[slot];
    assert(!entry.live);
    entry.fn = std::move(fn);
    entry.live = true;
    heap_.push_back(HeapEntry{key.time, key.seq, slot, entry.generation});
    sift_up(heap_.size() - 1);
    return make_id(slot, entry.generation);
  }

  /// Rewrites the key of the entry at \p pos and restores heap order. An
  /// earlier key moves up; a later one moves down. Try up first; if it did
  /// not move, settle downward.
  void set_key(std::size_t pos, EventKey key) {
    heap_[pos].time = key.time;
    heap_[pos].seq = key.seq;
    if (sift_up(pos) == pos) sift_down(pos);
  }

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) |
           (static_cast<EventId>(slot) + 1);
  }
  static std::uint32_t id_slot(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
  }
  static std::uint32_t id_generation(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Frees a slot: destroys the handler, bumps the generation (invalidating
  /// outstanding ids), and recycles the index.
  void release(std::uint32_t slot) {
    Slot& entry = slots_[slot];
    entry.fn.reset();
    entry.live = false;
    ++entry.generation;
    free_slots_.push_back(slot);
  }

  /// Writes \p pos into the owning slot's position index. Unconditional:
  /// eager removal guarantees every heap entry is live and owns its slot.
  void set_pos(const HeapEntry& entry, std::size_t pos) {
    assert(slots_[entry.slot].live &&
           slots_[entry.slot].generation == entry.generation);
    slots_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
  }

  /// Moves heap_[i] toward the root while it fires before its parent,
  /// maintaining position indices. Returns the final index.
  std::size_t sift_up(std::size_t i) {
    HeapEntry entry = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!Later{}(heap_[parent], entry)) break;
      heap_[i] = heap_[parent];
      set_pos(heap_[i], i);
      i = parent;
    }
    heap_[i] = std::move(entry);
    set_pos(heap_[i], i);
    return i;
  }

  /// Moves heap_[i] toward the leaves while a child fires before it,
  /// maintaining position indices.
  void sift_down(std::size_t i) {
    HeapEntry entry = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && Later{}(heap_[child], heap_[child + 1])) ++child;
      if (!Later{}(entry, heap_[child])) break;
      heap_[i] = heap_[child];
      set_pos(heap_[i], i);
      i = child;
    }
    heap_[i] = std::move(entry);
    set_pos(heap_[i], i);
  }

  /// Removes the entry at \p pos: the last entry fills the hole and sifts
  /// to its place (either direction — the hole's parent/children bear no
  /// relation to the tail entry's key).
  void remove_at(std::size_t pos) {
    assert(pos < heap_.size());
    const std::size_t last = heap_.size() - 1;
    if (pos != last) {
      heap_[pos] = heap_[last];
      heap_.pop_back();
      if (sift_up(pos) == pos) sift_down(pos);
    } else {
      heap_.pop_back();
    }
  }

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t scheduled_ = 0;
};

}  // namespace vodsim
