// Tests for the discrete-event kernel: ordering, cancellation, reentrancy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "vodsim/des/event_queue.h"
#include "vodsim/des/simulator.h"

namespace vodsim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(3.0, [&](Seconds) { fired.push_back(3); });
  queue.schedule(1.0, [&](Seconds) { fired.push_back(1); });
  queue.schedule(2.0, [&](Seconds) { fired.push_back(2); });
  while (!queue.empty()) {
    auto [time, fn] = queue.pop();
    fn(time);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(5.0, [&fired, i](Seconds) { fired.push_back(i); });
  }
  while (!queue.empty()) queue.pop().second(5.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue queue;
  bool fired = false;
  const EventId id = queue.schedule(1.0, [&](Seconds) { fired = true; });
  queue.schedule(2.0, [](Seconds) {});
  queue.cancel(id);
  EXPECT_EQ(queue.size(), 1u);
  while (!queue.empty()) queue.pop().second(0.0);
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelInvalidIsNoop) {
  EventQueue queue;
  queue.cancel(kInvalidEventId);
  queue.cancel(9999);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, DoubleCancelIsNoop) {
  EventQueue queue;
  const EventId id = queue.schedule(1.0, [](Seconds) {});
  queue.cancel(id);
  queue.cancel(id);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, PeekSkipsCancelled) {
  EventQueue queue;
  const EventId early = queue.schedule(1.0, [](Seconds) {});
  queue.schedule(2.0, [](Seconds) {});
  queue.cancel(early);
  EXPECT_DOUBLE_EQ(queue.peek_time(), 2.0);
}

TEST(EventQueue, ManyScheduleCancelCycles) {
  EventQueue queue;
  int fired = 0;
  for (int round = 0; round < 1000; ++round) {
    const EventId keep =
        queue.schedule(static_cast<double>(round), [&](Seconds) { ++fired; });
    const EventId drop = queue.schedule(static_cast<double>(round) + 0.5,
                                        [&](Seconds) { FAIL() << "cancelled"; });
    queue.cancel(drop);
    (void)keep;
  }
  while (!queue.empty()) queue.pop().second(0.0);
  EXPECT_EQ(fired, 1000);
}

TEST(EventQueue, CancelChurnRemovesEntriesEagerlyAndPreservesOrdering) {
  // cancel() removes its heap entry in place (sift-out through the position
  // index), so dead entries never accumulate. The removals must not disturb
  // firing order — neither across times nor the schedule-order tie-break at
  // equal times.
  EventQueue queue;
  std::vector<int> fired;
  std::vector<EventId> doomed;
  // Interleave survivors with events that will all be cancelled. Half the
  // survivors share one timestamp to exercise the equal-time tie-break
  // across the removal churn.
  for (int i = 0; i < 4000; ++i) {
    const Seconds time = (i % 2 == 0) ? 500.0 : static_cast<double>(i);
    queue.schedule(time, [&fired, i](Seconds) { fired.push_back(i); });
    doomed.push_back(
        queue.schedule(static_cast<double>(i) + 0.25, [](Seconds) {}));
    doomed.push_back(
        queue.schedule(static_cast<double>(i) + 0.75, [](Seconds) {}));
  }
  EXPECT_EQ(queue.heap_entries(), 12000u);
  for (const EventId id : doomed) queue.cancel(id);
  // Eager removal: the heap holds exactly the live events, immediately.
  EXPECT_EQ(queue.heap_entries(), 4000u);
  queue.schedule(1e9, [](Seconds) {});
  EXPECT_EQ(queue.heap_entries(), queue.size());
  EXPECT_EQ(queue.size(), 4001u);

  std::vector<int> expected;
  Seconds last = -1.0;
  while (!queue.empty()) {
    auto [time, fn] = queue.pop();
    EXPECT_GE(time, last);
    last = time;
    fn(time);
  }
  // Reconstruct the required order: ascending time, schedule order at ties.
  std::vector<std::pair<Seconds, int>> keyed;
  for (int i = 0; i < 4000; ++i) {
    keyed.emplace_back((i % 2 == 0) ? 500.0 : static_cast<double>(i), i);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [time, index] : keyed) expected.push_back(index);
  EXPECT_EQ(fired, expected);
}

TEST(EventQueue, RescheduleMovesEventBothDirections) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(1.0, [&](Seconds) { fired.push_back(1); });
  const EventId mid = queue.schedule(2.0, [&](Seconds) { fired.push_back(2); });
  queue.schedule(3.0, [&](Seconds) { fired.push_back(3); });

  EXPECT_TRUE(queue.reschedule(mid, 0.5));  // earlier: sift up
  while (!queue.empty()) queue.pop().second(0.0);
  EXPECT_EQ(fired, (std::vector<int>{2, 1, 3}));

  fired.clear();
  queue.schedule(1.0, [&](Seconds) { fired.push_back(1); });
  const EventId front =
      queue.schedule(0.5, [&](Seconds) { fired.push_back(2); });
  queue.schedule(3.0, [&](Seconds) { fired.push_back(3); });
  EXPECT_TRUE(queue.reschedule(front, 2.0));  // later: sift down
  while (!queue.empty()) queue.pop().second(0.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RescheduleKeepsHandleValidAndHeapFlat) {
  // The whole point of retiming: no dead entry left in the heap, no new
  // slot, and the original handle keeps working across many retimes.
  EventQueue queue;
  bool fired = false;
  const EventId id = queue.schedule(1.0, [&](Seconds) { fired = true; });
  const std::size_t entries = queue.heap_entries();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(queue.reschedule(id, 1.0 + static_cast<double>(i)));
  }
  EXPECT_EQ(queue.heap_entries(), entries);  // zero churn
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_DOUBLE_EQ(queue.peek_time(), 100.0);
  queue.cancel(id);  // handle still owns the slot
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, RescheduleConsumesSeqSoEqualTimeTiesMatchCancelPlusSchedule) {
  // Determinism contract: a retimed event must tie with equal-time events
  // exactly as a cancel+fresh-schedule would — i.e. it loses the tie-break
  // against everything scheduled before the retime, despite its original
  // seq being older.
  EventQueue queue;
  std::vector<int> fired;
  const EventId moved =
      queue.schedule(1.0, [&](Seconds) { fired.push_back(1); });
  queue.schedule(5.0, [&](Seconds) { fired.push_back(2); });
  EXPECT_TRUE(queue.reschedule(moved, 5.0));
  while (!queue.empty()) queue.pop().second(5.0);
  EXPECT_EQ(fired, (std::vector<int>{2, 1}));
  // And the seq counter advanced, mirroring the replaced schedule call.
  EXPECT_EQ(queue.scheduled_count(), 3u);
}

TEST(EventQueue, RescheduleDeadOrStaleIdReturnsFalse) {
  EventQueue queue;
  EXPECT_FALSE(queue.reschedule(kInvalidEventId, 1.0));
  EXPECT_FALSE(queue.reschedule(9999, 1.0));

  const EventId cancelled = queue.schedule(1.0, [](Seconds) {});
  queue.cancel(cancelled);
  EXPECT_FALSE(queue.reschedule(cancelled, 2.0));

  const EventId fired_id = queue.schedule(1.0, [](Seconds) {});
  queue.pop().second(1.0);
  EXPECT_FALSE(queue.reschedule(fired_id, 2.0));

  // Slot recycled under a stale handle: the retime must target nothing.
  bool survivor_moved_early = false;
  const EventId recycled = queue.schedule(7.0, [&](Seconds time) {
    survivor_moved_early = time < 7.0;
  });
  (void)recycled;
  EXPECT_FALSE(queue.reschedule(fired_id, 0.0));  // may alias the same slot
  auto [time, fn] = queue.pop();
  fn(time);
  EXPECT_DOUBLE_EQ(time, 7.0);
  EXPECT_FALSE(survivor_moved_early);
}

TEST(EventQueue, RescheduleAfterCancelChurnUsesMaintainedPositions) {
  // Every eager cancel moves an unrelated entry into the freed hole and
  // sifts it, rewriting position indices throughout the heap. A retime
  // issued afterwards must land on the entry's *current* position, not
  // where it sat before the churn.
  EventQueue queue;
  std::vector<int> fired;
  std::vector<EventId> doomed;
  std::vector<EventId> movers;
  for (int i = 0; i < 2000; ++i) {
    movers.push_back(queue.schedule(1000.0 + static_cast<double>(i),
                                    [&fired, i](Seconds) { fired.push_back(i); }));
    doomed.push_back(
        queue.schedule(static_cast<double>(i) + 0.25, [](Seconds) {}));
    doomed.push_back(
        queue.schedule(static_cast<double>(i) + 0.75, [](Seconds) {}));
  }
  for (const EventId id : doomed) queue.cancel(id);
  queue.schedule(1e9, [](Seconds) {});
  ASSERT_EQ(queue.size(), 2001u);
  // Retime every survivor into reversed order.
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(queue.reschedule(movers[static_cast<std::size_t>(i)],
                                 3000.0 - static_cast<double>(i)));
  }
  while (!queue.empty()) queue.pop().second(0.0);
  ASSERT_EQ(fired.size(), 2000u);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], 1999 - i);
  }
}

TEST(EventQueue, MixedRescheduleCancelChurnMatchesReferenceOrder) {
  // Deterministic pseudo-random churn of schedule/cancel/reschedule against
  // a naive reference model of the contract: live events fire in ascending
  // (time, seq) where reschedule assigns a fresh seq.
  EventQueue queue;
  struct Ref {
    Seconds time;
    std::uint64_t seq;
    int tag;
  };
  std::vector<EventId> ids;
  std::vector<Ref> ref;       // parallel to ids; seq 0 = dead
  std::vector<int> fired;
  std::uint64_t seq = 0;
  std::uint64_t rng = 12345;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int op = 0; op < 3000; ++op) {
    const std::uint64_t roll = next() % 100;
    if (roll < 50 || ids.empty()) {
      const Seconds time = static_cast<double>(next() % 1000);
      const int tag = op;
      ids.push_back(queue.schedule(time, [&fired, tag](Seconds) {
        fired.push_back(tag);
      }));
      ref.push_back({time, ++seq, tag});
    } else if (roll < 80) {
      const std::size_t pick = next() % ids.size();
      const Seconds time = static_cast<double>(next() % 1000);
      const bool ok = queue.reschedule(ids[pick], time);
      EXPECT_EQ(ok, ref[pick].seq != 0);
      if (ok) {
        ref[pick].time = time;
        ref[pick].seq = ++seq;
      }
    } else {
      const std::size_t pick = next() % ids.size();
      queue.cancel(ids[pick]);
      ref[pick].seq = 0;
    }
  }
  std::vector<Ref> live;
  for (const Ref& r : ref) {
    if (r.seq != 0) live.push_back(r);
  }
  std::sort(live.begin(), live.end(), [](const Ref& a, const Ref& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  });
  ASSERT_EQ(queue.size(), live.size());
  while (!queue.empty()) queue.pop().second(0.0);
  ASSERT_EQ(fired.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(fired[i], live[i].tag);
  }
}

TEST(EventQueue, StaleIdCannotCancelRecycledSlot) {
  // After an event fires (or is cancelled), its slot is recycled with a
  // bumped generation. An id retained from the old occupant must not be
  // able to kill the slot's new event.
  EventQueue queue;
  const EventId stale = queue.schedule(1.0, [](Seconds) {});
  queue.pop().second(1.0);  // fires; slot 0 freed

  bool fired = false;
  const EventId fresh = queue.schedule(2.0, [&](Seconds) { fired = true; });
  // Slot is reused, so the ids alias the same slot but differ by generation.
  EXPECT_NE(stale, fresh);
  queue.cancel(stale);  // must be a no-op
  EXPECT_EQ(queue.size(), 1u);
  queue.pop().second(2.0);
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelledIdStaysStaleAfterSlotReuse) {
  EventQueue queue;
  const EventId first = queue.schedule(1.0, [](Seconds) {});
  queue.cancel(first);
  bool fired = false;
  queue.schedule(2.0, [&](Seconds) { fired = true; });
  queue.cancel(first);  // double cancel aimed at a recycled slot: no-op
  EXPECT_EQ(queue.size(), 1u);
  queue.pop().second(2.0);
  EXPECT_TRUE(fired);
}

TEST(EventQueue, ScheduledCountIsMonotone) {
  EventQueue queue;
  std::uint64_t last = queue.scheduled_count();
  EXPECT_EQ(last, 0u);
  for (int i = 0; i < 3000; ++i) {
    const EventId id = queue.schedule(static_cast<double>(i % 7), [](Seconds) {});
    EXPECT_GT(queue.scheduled_count(), last);
    last = queue.scheduled_count();
    if (i % 3 == 0) {
      queue.cancel(id);  // cancels must never roll the counter back
      EXPECT_EQ(queue.scheduled_count(), last);
    }
    if (i % 5 == 0 && !queue.empty()) {
      queue.pop();  // neither must pops
      EXPECT_EQ(queue.scheduled_count(), last);
    }
  }
  EXPECT_EQ(last, 3000u);
}

// ------------------------------------------------------- keyed entries

TEST(EventQueue, KeyedEntryWithOldSeqPopsAheadOfNewerEqualTimeEvent) {
  // A keyed entry stands for an event whose seq was drawn earlier: at equal
  // times it must beat everything scheduled after that draw, however late
  // the entry itself was inserted.
  EventQueue queue;
  std::vector<int> fired;
  const std::uint64_t old_seq = queue.draw_seq();
  queue.schedule(5.0, [&](Seconds) { fired.push_back(2); });
  queue.schedule_keyed(EventKey{5.0, old_seq},
                       [&](Seconds) { fired.push_back(1); });
  queue.schedule(5.0, [&](Seconds) { fired.push_back(3); });
  while (!queue.empty()) queue.pop().second(5.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, KeyedCallsConsumeNoSeq) {
  EventQueue queue;
  const std::uint64_t seq = queue.draw_seq();
  EXPECT_EQ(queue.scheduled_count(), 1u);
  const EventId id = queue.schedule_keyed(EventKey{1.0, seq}, [](Seconds) {});
  EXPECT_TRUE(queue.rekey(id, EventKey{2.0, seq}));
  EXPECT_EQ(queue.scheduled_count(), 1u);
}

TEST(EventQueue, RekeyMovesAnEntryUpAndDown) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 1; i <= 3; ++i) {
    queue.schedule(static_cast<double>(i),
                   [&fired, i](Seconds) { fired.push_back(i); });
  }
  const EventId keyed = queue.schedule_keyed(
      EventKey{2.5, queue.draw_seq()}, [&](Seconds) { fired.push_back(9); });

  const EventKey up{0.5, queue.draw_seq()};
  EXPECT_TRUE(queue.rekey(keyed, up));
  EXPECT_DOUBLE_EQ(queue.peek_time(), 0.5);
  EventKey key{};
  ASSERT_TRUE(queue.pending_key(keyed, key));
  EXPECT_EQ(key, up);

  const EventKey down{4.0, queue.draw_seq()};
  EXPECT_TRUE(queue.rekey(keyed, down));
  EXPECT_DOUBLE_EQ(queue.peek_time(), 1.0);
  ASSERT_TRUE(queue.pending_key(keyed, key));
  EXPECT_EQ(key, down);

  // Same time, older seq: moves ahead of an equal-time event.
  queue.schedule(4.0, [&](Seconds) { fired.push_back(4); });
  EXPECT_TRUE(queue.rekey(keyed, EventKey{4.0, down.seq}));
  while (!queue.empty()) {
    auto [time, fn] = queue.pop();
    fn(time);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 9, 4}));
}

TEST(EventQueue, RekeyFiredOrStaleIdIsANoop) {
  EventQueue queue;
  EventKey key{};
  EXPECT_FALSE(queue.rekey(kInvalidEventId, EventKey{1.0, queue.draw_seq()}));
  EXPECT_FALSE(queue.pending_key(kInvalidEventId, key));

  const EventId fired_id =
      queue.schedule_keyed(EventKey{1.0, queue.draw_seq()}, [](Seconds) {});
  queue.pop().second(1.0);
  EXPECT_FALSE(queue.rekey(fired_id, EventKey{2.0, queue.draw_seq()}));
  EXPECT_FALSE(queue.pending_key(fired_id, key));
  EXPECT_TRUE(queue.empty());

  const EventId cancelled =
      queue.schedule_keyed(EventKey{1.0, queue.draw_seq()}, [](Seconds) {});
  queue.cancel(cancelled);
  // The freed slot is recycled; the stale id must not reach the new event.
  const EventKey live_key{3.0, queue.draw_seq()};
  const EventId live = queue.schedule_keyed(live_key, [](Seconds) {});
  EXPECT_FALSE(queue.rekey(cancelled, EventKey{0.5, queue.draw_seq()}));
  EXPECT_FALSE(queue.pending_key(cancelled, key));
  ASSERT_TRUE(queue.pending_key(live, key));
  EXPECT_EQ(key, live_key);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueue, KeyedChurnKeepsHeapFlatAndOrdered) {
  // One keyed entry per "server", re-keyed, cancelled and re-armed many
  // times among plain events: no dead entries, and pops stay sorted.
  EventQueue queue;
  Seconds now = 0.0;
  std::vector<EventId> timers(50, kInvalidEventId);
  std::uint64_t state = 12345;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) / static_cast<double>(1ull << 53);
  };
  for (int round = 0; round < 2000; ++round) {
    EventId& timer = timers[static_cast<std::size_t>(round) % timers.size()];
    const EventKey key{now + 10.0 * next(), queue.draw_seq()};
    if (round % 7 == 0) {
      queue.cancel(timer);
      timer = kInvalidEventId;
    } else if (!queue.rekey(timer, key)) {
      timer = queue.schedule_keyed(key, [](Seconds) {});
    }
    if (round % 3 == 0) queue.schedule(now + 10.0 * next(), [](Seconds) {});
    EXPECT_EQ(queue.heap_entries(), queue.size());
    if (round % 5 == 0 && !queue.empty()) {
      const Seconds time = queue.pop().first;
      EXPECT_GE(time, now);
      now = time;
      // A popped timer's id is dead from here on.
      for (EventId& id : timers) {
        EventKey unused{};
        if (!queue.pending_key(id, unused)) id = kInvalidEventId;
      }
    }
  }
  EXPECT_EQ(queue.heap_entries(), queue.size());
  Seconds last = now;
  while (!queue.empty()) {
    const Seconds time = queue.pop().first;
    EXPECT_GE(time, last);
    last = time;
  }
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<Seconds> times;
  sim.schedule_at(2.5, [&](Seconds t) { times.push_back(t); });
  sim.schedule_at(1.0, [&](Seconds t) { times.push_back(t); });
  sim.run();
  EXPECT_EQ(times, (std::vector<Seconds>{1.0, 2.5}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
}

TEST(Simulator, SchedulingInThePastClampsToNow) {
  Simulator sim;
  Seconds fired_at = -1.0;
  sim.schedule_at(5.0, [&](Seconds) {
    sim.schedule_at(1.0, [&](Seconds t) { fired_at = t; });  // past
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulator, RescheduleAtClampsToNowAndRetimes) {
  Simulator sim;
  std::vector<std::pair<int, Seconds>> fired;
  const EventId target = sim.schedule_at(10.0, [&](Seconds t) {
    fired.emplace_back(2, t);
  });
  sim.schedule_at(5.0, [&](Seconds t) {
    fired.emplace_back(1, t);
    // Retiming into the past clamps to now() — "immediately after this
    // event", exactly like schedule_at.
    EXPECT_TRUE(sim.reschedule_at(1.0, target));
  });
  sim.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].first, 1);
  EXPECT_EQ(fired[1].first, 2);
  EXPECT_DOUBLE_EQ(fired[1].second, 5.0);

  // Dead handles report false through the simulator too.
  EXPECT_FALSE(sim.reschedule_at(1.0, target));
}

TEST(Simulator, ScheduleInUsesDelay) {
  Simulator sim;
  Seconds fired_at = -1.0;
  sim.schedule_at(2.0, [&](Seconds) {
    sim.schedule_in(3.0, [&](Seconds t) { fired_at = t; });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&](Seconds) { ++fired; });
  sim.schedule_at(10.0, [&](Seconds) { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending_count(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWithEmptyQueue) {
  Simulator sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Simulator, ReentrantSchedulingChains) {
  Simulator sim;
  int count = 0;
  // Each event schedules the next until 100 have run.
  std::function<void(Seconds)> chain = [&](Seconds) {
    if (++count < 100) sim.schedule_in(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
  EXPECT_EQ(sim.executed_count(), 100u);
}

TEST(Simulator, HandlerCanCancelPendingEvent) {
  Simulator sim;
  bool victim_fired = false;
  const EventId victim =
      sim.schedule_at(2.0, [&](Seconds) { victim_fired = true; });
  sim.schedule_at(1.0, [&](Seconds) { sim.cancel(victim); });
  sim.run();
  EXPECT_FALSE(victim_fired);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1.0, [](Seconds) {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EqualTimeEventsRespectCausality) {
  // An event scheduled *at the current time* from within a handler must run
  // after all other handlers already queued at that time (it gets a later
  // sequence number) — this is what makes simultaneous arrival + completion
  // deterministic in the engine.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&](Seconds) {
    order.push_back(1);
    sim.schedule_at(1.0, [&](Seconds) { order.push_back(3); });
  });
  sim.schedule_at(1.0, [&](Seconds) { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace vodsim
