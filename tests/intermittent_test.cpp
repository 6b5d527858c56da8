// Tests for the intermittent scheduler and buffer-aware admission — the
// beyond-minimum-flow extension (paper §3.3 calls the optimal version
// impractical; this is the bounded heuristic).

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>

#include "vodsim/engine/vod_simulation.h"
#include "vodsim/sched/finish_order.h"
#include "vodsim/sched/intermittent.h"

namespace vodsim {
namespace {

constexpr Mbps kView = 3.0;

Video make_video(VideoId id, Seconds duration) {
  Video video;
  video.id = id;
  video.duration = duration;
  video.view_bandwidth = kView;
  return video;
}

/// Builds a streaming request with a chosen staged level. Every request is
/// advanced over the same 1000-second prefix so they share a decision time
/// with playback still in progress (prefix = level + 1000 s of viewing).
std::unique_ptr<Request> make_request(RequestId id, Megabits remaining,
                                      Megabits level, Megabits cap = 1e9,
                                      Mbps receive = 30.0) {
  constexpr Seconds kPrefixTime = 1000.0;
  const Megabits prefix = level + kView * kPrefixTime;
  auto request = std::make_unique<Request>(
      id, make_video(0, (remaining + prefix) / kView), 0.0,
      ClientProfile{cap, receive});
  request->begin_streaming(0.0, 0);
  const Mbps rate = prefix / kPrefixTime;
  EXPECT_LE(rate, receive + 1e-9) << "fixture prefix exceeds receive cap";
  request->set_allocation(0.0, rate);
  request->advance(kPrefixTime);
  request->set_allocation(kPrefixTime, 0.0);
  return request;
}

/// Requests attached to one server with ample bandwidth, so the scheduler
/// sees a server's active list, as the engine hands it.
struct ActiveSet {
  std::vector<std::unique_ptr<Request>> owner;
  Server server{0, 1000.0, 1e12};  // room for 333 streams at kView
  const std::vector<Request*>& active = server.active_requests();
  Seconds now = 0.0;

  Request& add(std::unique_ptr<Request> request) {
    now = std::max(now, request->last_update());
    server.attach(*request);
    owner.push_back(std::move(request));
    return *owner.back();
  }

  void sync() {
    for (auto& request : owner) {
      request->advance(now);
      request->set_allocation(now, 0.0);
    }
  }
};

TEST(Intermittent, UrgentStreamsFedFirst) {
  ActiveSet set;
  Request& starving = set.add(make_request(1, 1000.0, 0.0));      // no cover
  Request& coasting = set.add(make_request(2, 1000.0, 600.0));    // 200 s cover
  set.sync();
  IntermittentScheduler scheduler(10.0);
  std::vector<Mbps> rates;
  scheduler.allocate(set.now, kView, set.active, rates);  // only 3 Mb/s total
  EXPECT_DOUBLE_EQ(rates[starving.active_index], kView);
  EXPECT_DOUBLE_EQ(rates[coasting.active_index], 0.0);  // starved on purpose
}

TEST(Intermittent, SlackGoesEftfAfterSafety) {
  ActiveSet set;
  Request& shortest = set.add(make_request(1, 100.0, 0.0));
  Request& longest = set.add(make_request(2, 5000.0, 0.0));
  set.sync();
  IntermittentScheduler scheduler(10.0);
  std::vector<Mbps> rates;
  scheduler.allocate(set.now, 100.0, set.active, rates);
  // Both urgent (empty buffers): 3 each; extra goes earliest-finish-first.
  EXPECT_DOUBLE_EQ(rates[shortest.active_index], 30.0);
  EXPECT_DOUBLE_EQ(rates[longest.active_index], 30.0);
  const double total = std::accumulate(rates.begin(), rates.end(), 0.0);
  EXPECT_LE(total, 100.0 + 1e-9);
}

TEST(Intermittent, OvercommittedCrunchRationsProportionally) {
  ActiveSet set;
  Request& empty = set.add(make_request(1, 1000.0, 0.0));
  Request& thin = set.add(make_request(2, 1000.0, 6.0));   // 2 s cover
  Request& thick = set.add(make_request(3, 1000.0, 24.0)); // 8 s cover
  set.sync();
  IntermittentScheduler scheduler(10.0);
  std::vector<Mbps> rates;
  // Capacity covers only two of the three urgent drains: the shortfall is
  // shared proportionally (stable membership — all-or-nothing feeding would
  // chatter as near-equal levels leapfrog each other).
  scheduler.allocate(set.now, 2.0 * kView, set.active, rates);
  EXPECT_DOUBLE_EQ(rates[empty.active_index], 2.0);
  EXPECT_DOUBLE_EQ(rates[thin.active_index], 2.0);
  EXPECT_DOUBLE_EQ(rates[thick.active_index], 2.0);
}

TEST(Intermittent, UrgencyLatchHasHysteresis) {
  ActiveSet set;
  // 5 s of cover: below the 10 s threshold -> latches urgent.
  Request& request = set.add(make_request(1, 2000.0, 15.0));
  set.sync();
  IntermittentScheduler scheduler(10.0);
  std::vector<Mbps> rates;
  scheduler.allocate(set.now, 100.0, set.active, rates);
  EXPECT_TRUE(request.workahead_urgent);
  EXPECT_GE(rates[0], kView);

  // Refill to 14 s of cover (42 Mb): above threshold but below 2x -> the
  // latch holds. 30 Mb/s is the client's receive cap.
  request.set_allocation(set.now, 30.0);  // +27 net over 1 s
  request.advance(set.now + 1.0);
  request.set_allocation(set.now + 1.0, 0.0);
  scheduler.allocate(set.now + 1.0, 100.0, set.active, rates);
  EXPECT_TRUE(request.workahead_urgent);

  // Refill past 2x threshold (>= 60 Mb) to 23 s of cover (69 Mb): latch
  // releases.
  request.set_allocation(set.now + 1.0, 30.0);
  request.advance(set.now + 2.0);
  request.set_allocation(set.now + 2.0, 0.0);
  scheduler.allocate(set.now + 2.0, 100.0, set.active, rates);
  EXPECT_FALSE(request.workahead_urgent);
}

TEST(Intermittent, NeverExceedsCapacityOrReceiveCaps) {
  Rng rng(77);
  IntermittentScheduler scheduler(10.0);
  for (int instance = 0; instance < 40; ++instance) {
    ActiveSet set;
    const int n = 1 + static_cast<int>(rng.uniform_int(10));
    for (int i = 0; i < n; ++i) {
      set.add(make_request(i, rng.uniform(50.0, 3000.0),
                           rng.uniform(0.0, 40.0), rng.uniform(50.0, 400.0),
                           rng.uniform(5.0, 40.0)));
    }
    set.sync();
    const Mbps capacity = rng.uniform(1.0, 4.0) * kView * n;
    std::vector<Mbps> rates;
    scheduler.allocate(set.now, capacity, set.active, rates);
    double total = 0.0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      EXPECT_GE(rates[i], 0.0);
      EXPECT_LE(rates[i], set.active[i]->receive_bandwidth() + 1e-9);
      if (set.active[i]->buffer_full()) {
        EXPECT_LE(rates[i], set.active[i]->view_bandwidth() + 1e-9);
      }
      total += rates[i];
    }
    EXPECT_LE(total, capacity + 1e-6);
  }
}

TEST(Intermittent, UrgencyLatchSurvivesMigration) {
  ActiveSet source;
  // 5 s of cover: latches urgent on the source server.
  Request& request = source.add(make_request(1, 2000.0, 15.0));
  source.sync();
  IntermittentScheduler scheduler(10.0);
  std::vector<Mbps> rates;
  scheduler.allocate(source.now, 100.0, source.active, rates);
  ASSERT_TRUE(request.workahead_urgent);

  // Refill into the hold band (14 s of cover), then move the stream.
  const Seconds later = source.now + 1.0;
  request.set_allocation(source.now, 30.0);
  request.advance(later);
  request.set_allocation(later, 0.0);
  source.server.detach(request);
  Server target(1, 1000.0, 1e12);
  target.attach(request);
  EXPECT_TRUE(request.workahead_urgent);
  EXPECT_EQ(target.lane().urgent(request.active_index), 1.0);

  // Inside the hold band the latch keeps whatever it carried: had the move
  // dropped it, the stream would now read as not urgent.
  scheduler.allocate(later, 100.0, target.active_requests(), rates);
  EXPECT_TRUE(request.workahead_urgent);
  EXPECT_EQ(target.lane().urgent(request.active_index), 1.0);
}

TEST(Intermittent, FitsAllPassSkipsTheSort) {
  ActiveSet set;
  for (int i = 0; i < 20; ++i) {
    // 30 s of cover (not urgent) and 310 Mb of headroom: each stream can
    // absorb its full 30 Mb/s receive cap.
    set.add(make_request(i, 1000.0 + 100.0 * i, 90.0, 400.0));
  }
  set.sync();
  IntermittentScheduler scheduler(10.0);
  AllocationScratch scratch;
  SchedCache cache;
  std::vector<Mbps> rates;

  // 600 Mb/s of demand on a 1000 Mb/s link: every grant fits, so the grant
  // order cannot matter and the cold cache stays cold.
  scheduler.allocate(set.now, 1000.0, set.active, rates, scratch, &cache);
  EXPECT_TRUE(cache.grant_order.empty());
  for (const Mbps rate : rates) EXPECT_EQ(rate, 30.0);

  // A saturated link sorts, which warms the cache.
  scheduler.allocate(set.now, 100.0, set.active, rates, scratch, &cache);
  EXPECT_EQ(cache.grant_order.size(), set.active.size());
  EXPECT_LE(std::accumulate(rates.begin(), rates.end(), 0.0), 100.0);
}

// ------------------------------------------------- reference comparison

/// The allocation as it was written over Request accessors, with phase 2
/// always sorted by (projected finish, id). The lane-based scheduler, with
/// its fits-all shortcut, must reproduce it bit for bit. Writes only
/// Request::workahead_urgent; the latch rule is idempotent at fixed cover,
/// so running it after the scheduler sees the memberships the scheduler
/// settled.
void reference_allocate(Seconds now, Mbps capacity, Seconds safety_cover,
                        const std::vector<Request*>& active,
                        std::vector<Mbps>& rates) {
  rates.assign(active.size(), 0.0);
  Mbps left = capacity;
  const auto cap_of = [now](const Request& request) {
    return std::min(request.receive_bandwidth(),
                    request.drain_rate(now) + request.buffer_headroom() / 10.0);
  };

  std::vector<std::size_t> urgent;
  Mbps urgent_drain = 0.0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    Request& request = *active[i];
    const Mbps drain = request.drain_rate(now);
    if (drain <= 0.0) continue;
    const Seconds cover = request.buffer_cover();
    if (cover <= safety_cover + 1e-6) {
      request.workahead_urgent = true;
    } else if (cover >= 2.0 * safety_cover) {
      request.workahead_urgent = false;
    }
    if (request.workahead_urgent) {
      urgent.push_back(i);
      urgent_drain += drain;
    }
  }
  if (urgent_drain > left) {
    for (std::size_t index : urgent) {
      rates[index] = left * active[index]->drain_rate(now) / urgent_drain;
    }
    return;
  }
  std::sort(urgent.begin(), urgent.end(), [&](std::size_t a, std::size_t b) {
    const Megabits la = active[a]->buffer_level();
    const Megabits lb = active[b]->buffer_level();
    if (la != lb) return la < lb;
    return active[a]->id() < active[b]->id();
  });
  for (std::size_t index : urgent) {
    rates[index] = active[index]->drain_rate(now);
    left -= rates[index];
  }
  for (std::size_t index : urgent) {
    if (left <= 0.0) break;
    const Request& request = *active[index];
    if (request.buffer_full()) continue;
    const Mbps grant = std::min(left, cap_of(request) - rates[index]);
    if (grant <= 0.0) continue;
    rates[index] += grant;
    left -= grant;
  }

  if (left <= 0.0) return;
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < active.size(); ++i) {
    const Request& request = *active[i];
    if (request.buffer_full()) continue;
    if (rates[i] >= request.receive_bandwidth()) continue;
    order.push_back(i);
  }
  const auto key = [&](std::size_t i) {
    return fluid_detail::projected_finish(now, active[i]->remaining(),
                                          active[i]->view_bandwidth());
  };
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (key(a) != key(b)) return key(a) < key(b);
    return active[a]->id() < active[b]->id();
  });
  for (std::size_t index : order) {
    if (left <= 0.0) break;
    const Mbps grant = std::min(left, cap_of(*active[index]) - rates[index]);
    if (grant <= 0.0) continue;
    rates[index] += grant;
    left -= grant;
  }
}

enum class Regime { kUnsaturated, kBorderline, kSaturated, kCrunch };

class IntermittentMatchesReference : public ::testing::TestWithParam<Regime> {};

// Random servers, evolved over several recomputes so latches set, hold and
// release. Each pass picks a capacity for the regime from the unclipped
// total (what every stream takes on an unbounded link):
//   unsaturated — well above it, so the fits-all shortcut runs;
//   borderline  — within a few ulps of it, or a few hundred on either side
//                 of the shortcut's margin, so both paths run;
//   saturated   — between the urgent drains and it, so phase 2 clips;
//   crunch      — below the urgent drains, so phase 1 rations.
TEST_P(IntermittentMatchesReference, BitIdentical) {
  const Regime regime = GetParam();
  constexpr Seconds kSafety = 10.0;
  IntermittentScheduler scheduler(kSafety);
  Rng rng(900 + static_cast<std::uint64_t>(regime));
  std::size_t shortcut_passes = 0;
  std::size_t sorted_passes = 0;

  for (int instance = 0; instance < 400; ++instance) {
    ActiveSet set;
    const int n = 2 + static_cast<int>(rng.uniform_int(59));
    for (int i = 0; i < n; ++i) {
      const Megabits level = rng.uniform() < 0.3 ? rng.uniform(0.0, 30.0)
                                                 : rng.uniform(0.0, 150.0);
      const double shape = rng.uniform();
      const Megabits headroom = shape < 0.1   ? 0.0
                                : shape < 0.2 ? rng.uniform(0.0, 1e-6)
                                              : rng.uniform(0.0, 400.0);
      // A few equal remaining sizes make projected-finish ties.
      const Megabits remaining = rng.uniform() < 0.2
                                     ? 1500.0
                                     : rng.uniform(10.0, 5000.0);
      set.add(make_request(i, remaining, level, level + headroom,
                           rng.uniform(3.2, 40.0)));
    }
    set.sync();
    for (Request* request : set.active) {
      if (rng.uniform() < 0.15) request->pause_viewing(set.now);
    }

    std::vector<Mbps> rates;
    std::vector<Mbps> expected;
    std::vector<Mbps> unclipped;
    AllocationScratch scratch;
    for (int round = 0; round < 6; ++round) {
      // The unbounded pass settles the latches (idempotent at fixed cover)
      // and gives the regime's reference totals.
      scheduler.allocate(set.now, 1e9, set.active, unclipped);
      const Mbps total =
          std::accumulate(unclipped.begin(), unclipped.end(), 0.0);
      Mbps urgent_drain = 0.0;
      for (Request* request : set.active) {
        if (request->workahead_urgent) {
          urgent_drain += request->drain_rate(set.now);
        }
      }

      Mbps capacity = 0.0;
      switch (regime) {
        case Regime::kUnsaturated:
          capacity = total * rng.uniform(1.05, 3.0) + 1.0;
          break;
        case Regime::kBorderline: {
          const double m = static_cast<double>(set.active.size() + 2);
          const double ulps = rng.uniform() < 0.5
                                  ? std::round(rng.uniform(-6.0, 6.0))
                                  : std::round(rng.uniform(-8.0, 24.0) * m);
          capacity = total * (1.0 + ulps * DBL_EPSILON);
          break;
        }
        case Regime::kSaturated:
          capacity = urgent_drain + rng.uniform(0.05, 0.95) *
                                        (total - urgent_drain);
          break;
        case Regime::kCrunch:
          capacity = rng.uniform(0.05, 0.95) * urgent_drain;
          break;
      }

      SchedCache cold;
      scheduler.allocate(set.now, capacity, set.active, rates, scratch,
                         &cold);
      if (cold.grant_order.empty()) {
        ++shortcut_passes;
      } else {
        ++sorted_passes;
      }
      reference_allocate(set.now, capacity, kSafety, set.active, expected);

      ASSERT_EQ(rates.size(), expected.size());
      for (std::size_t i = 0; i < rates.size(); ++i) {
        ASSERT_EQ(rates[i], expected[i])
            << "instance " << instance << " round " << round << " slot " << i
            << " capacity " << capacity;
        ASSERT_EQ(set.server.lane().urgent(i),
                  set.active[i]->workahead_urgent ? 1.0 : 0.0);
      }

      // Play the grants forward, as the engine would until its next event.
      for (std::size_t i = 0; i < rates.size(); ++i) {
        set.active[i]->set_allocation(set.now, rates[i]);
      }
      set.now += rng.uniform(0.5, 15.0);
      for (Request* request : set.active) request->advance(set.now);
    }
  }

  // Non-vacuous: the regimes reach the paths they are meant to.
  switch (regime) {
    case Regime::kUnsaturated:
      EXPECT_GT(shortcut_passes, 0u);
      break;
    case Regime::kBorderline:
      EXPECT_GT(shortcut_passes, 0u);
      EXPECT_GT(sorted_passes, 0u);
      break;
    case Regime::kSaturated:
      EXPECT_GT(sorted_passes, 0u);
      break;
    case Regime::kCrunch:
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, IntermittentMatchesReference,
    ::testing::Values(Regime::kUnsaturated, Regime::kBorderline,
                      Regime::kSaturated, Regime::kCrunch),
    [](const ::testing::TestParamInfo<Regime>& info) {
      switch (info.param) {
        case Regime::kUnsaturated:
          return std::string("unsaturated");
        case Regime::kBorderline:
          return std::string("borderline");
        case Regime::kSaturated:
          return std::string("saturated");
        case Regime::kCrunch:
          return std::string("crunch");
      }
      return std::string("unknown");
    });

TEST(Intermittent, FactoryRoundTrip) {
  EXPECT_EQ(scheduler_kind_from_string("intermittent"),
            SchedulerKind::kIntermittent);
  EXPECT_EQ(make_scheduler(SchedulerKind::kIntermittent)->name(), "intermittent");
}

// ------------------------------------------------------- buffer-aware admission

TEST(BufferAware, RequiresIntermittentScheduler) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.admission.buffer_aware = true;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.scheduler = SchedulerKind::kIntermittent;
  EXPECT_NO_THROW(config.validate());
}

SimulationConfig buffer_aware_config(std::uint64_t seed) {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.zipf_theta = 0.271;
  config.duration = hours(20);
  config.warmup = hours(2);
  config.seed = seed;
  config.client.staging_fraction = 0.2;
  config.client.receive_bandwidth = 30.0;
  config.scheduler = SchedulerKind::kIntermittent;
  config.admission.buffer_aware = true;
  config.admission.buffer_aware_horizon = 30.0;
  return config;
}

TEST(BufferAware, FeasibilityIgnoresCoastingStreams) {
  // A nominally full server whose streams all coast on fat buffers is
  // feasible under buffer-aware admission, infeasible under minimum flow.
  Video video = make_video(0, 2000.0);
  std::vector<Server> servers;
  servers.emplace_back(0, 3.0 * kView, 1e9);  // room for 3 nominal streams
  ASSERT_TRUE(servers[0].add_replica(video));
  std::vector<std::unique_ptr<Request>> owner;
  for (int i = 0; i < 3; ++i) {
    owner.push_back(make_request(i, 3000.0, /*level=*/600.0));  // 200 s cover
    servers[0].attach(*owner.back());
  }
  ASSERT_FALSE(servers[0].can_admit(kView));  // minimum-flow rule: full

  ReplicaDirectory directory(1, servers);
  AdmissionConfig config;
  config.buffer_aware = true;
  config.buffer_aware_horizon = 30.0;
  AdmissionController aggressive(config, directory);
  AdmissionConfig conservative_config;
  AdmissionController conservative(conservative_config, directory);

  EXPECT_TRUE(aggressive.feasible(servers[0], kView));
  EXPECT_FALSE(conservative.feasible(servers[0], kView));

  Rng rng(1);
  EXPECT_TRUE(aggressive.decide(0.0, 0, kView, servers, rng).accepted);
  EXPECT_FALSE(conservative.decide(0.0, 0, kView, servers, rng).accepted);
}

TEST(BufferAware, AggressiveAdmissionStillBounded) {
  SimulationConfig aggressive = buffer_aware_config(61);
  VodSimulation simulation(aggressive);
  const Metrics& metrics = simulation.run();
  EXPECT_LE(metrics.utilization(), 1.0 + 1e-9);
  EXPECT_GT(metrics.accepts(), 0u);
}

TEST(BufferAware, IntermittentAloneKeepsContinuity) {
  // The intermittent scheduler under the *paper's* conservative admission:
  // starving buffered streams is safe because commitments fit the link.
  SimulationConfig config = buffer_aware_config(62);
  config.admission.buffer_aware = false;  // conservative admission
  VodSimulation simulation(config);
  simulation.run();
  EXPECT_EQ(simulation.continuity_violations(), 0u);
}

TEST(BufferAware, ViolationsAreCountedNotHidden) {
  // With aggressive admission the engine must run to completion and report
  // any continuity damage honestly (it may be zero on easy seeds; the point
  // is the accounting path works end to end).
  SimulationConfig config = buffer_aware_config(63);
  config.load_factor = 1.3;  // stress it
  VodSimulation simulation(config);
  const Metrics& metrics = simulation.run();
  EXPECT_LE(metrics.utilization(), 1.0 + 1e-9);
  // continuity_violations() covers the whole run; the metric is clipped to
  // the post-warmup window, so it can only be smaller.
  EXPECT_GE(simulation.continuity_violations(), metrics.underflow_events());
  EXPECT_GT(simulation.continuity_violations(), 0u);  // 1.3x load must hurt
}

}  // namespace
}  // namespace vodsim
