#include "layers.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "vodsim/analysis/bounds.h"
#include "vodsim/cluster/fluid_lane.h"
#include "vodsim/des/simulator.h"
#include "vodsim/placement/domain_spread.h"
#include "vodsim/placement/placement.h"
#include "vodsim/sched/finish_order.h"
#include "vodsim/workload/drift.h"

namespace perfbench {

using namespace vodsim;

void TraceCounts::merge(const TraceCounts& other) {
  for (std::size_t i = 0; i < kTypes; ++i) by_type[i] += other.by_type[i];
  events += other.events;
  recompute_streams += other.recompute_streams;
  search_nodes += other.search_nodes;
  search_hits += other.search_hits;
}

TraceCounts count_trace(const TraceRecorder& recorder) {
  if (recorder.dropped() != 0) {
    throw std::runtime_error(
        "traced run overflowed its ring: " + std::to_string(recorder.dropped()) +
        " of " + std::to_string(recorder.emitted()) + " events lost");
  }
  TraceCounts counts;
  counts.events = recorder.emitted();
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    const TraceEvent& event = recorder[i];
    ++counts.by_type[static_cast<std::size_t>(event.type)];
    if (event.type == TraceEventType::kRecompute) {
      counts.recompute_streams += event.a;
    } else if (event.type == TraceEventType::kMigrationSearch) {
      counts.search_nodes += event.a;
      if (event.b >= 0.0) ++counts.search_hits;
    }
  }
  return counts;
}

namespace {

/// Median over \p batches of the host seconds one call of \p fn takes, each
/// batch timing \p calls consecutive calls (fn receives the call index).
template <typename Fn>
double per_call_seconds(int batches, std::size_t calls, Fn&& fn) {
  std::vector<double> samples;
  std::size_t index = 0;
  for (int b = 0; b < batches; ++b) {
    const auto start = Clock::now();
    for (std::size_t c = 0; c < calls; ++c) fn(index++);
    samples.push_back(seconds_since(start) / static_cast<double>(calls));
  }
  return median(samples);
}

constexpr int kBatches = 5;

/// Simulator::reschedule_at on a queue holding \p population events.
double replay_reschedule_ns(std::size_t population, Rng& rng) {
  Simulator sim;
  sim.reserve_events(population + 1);
  std::vector<EventId> ids;
  ids.reserve(population);
  for (std::size_t i = 0; i < population; ++i) {
    ids.push_back(sim.schedule_at(rng.uniform(1.0, 1e6), [](Seconds) {}));
  }
  constexpr std::size_t kCalls = 1 << 16;
  std::vector<std::size_t> which(kCalls);
  std::vector<Seconds> when(kCalls);
  for (std::size_t c = 0; c < kCalls; ++c) {
    which[c] = static_cast<std::size_t>(rng.uniform_int(population));
    when[c] = rng.uniform(1.0, 1e6);
  }
  return 1e9 * per_call_seconds(kBatches, kCalls, [&](std::size_t c) {
           sim.reschedule_at(when[c % kCalls], ids[which[c % kCalls]]);
         });
}

/// An event that schedules its successor, keeping the queue population
/// constant while Simulator::step drains it.
struct Successor {
  Simulator* sim;
  const std::vector<Seconds>* gaps;
  std::size_t* cursor;
  void operator()(Seconds now) const {
    const Seconds gap = (*gaps)[(*cursor)++ % gaps->size()];
    sim->schedule_at(now + gap, *this);
  }
};

/// Simulator::step (pop + callback that schedules one successor) with
/// \p population events pending.
double replay_step_ns(std::size_t population, Rng& rng) {
  Simulator sim;
  sim.reserve_events(population + 1);
  std::vector<Seconds> gaps(1 << 16);
  for (Seconds& gap : gaps) gap = rng.uniform(0.0, 1e3);
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < population; ++i) {
    sim.schedule_at(rng.uniform(0.0, 1e3), Successor{&sim, &gaps, &cursor});
  }
  return 1e9 * per_call_seconds(kBatches, 1 << 16,
                                [&](std::size_t) { sim.step(); });
}

}  // namespace

LayerCosts replay_layers(const VodSimulation& sim, std::uint64_t seed) {
  const SimulationConfig& config = sim.config();
  const Seconds now = sim.simulator().now();
  Rng rng(seed);
  LayerCosts costs;

  const std::size_t population = std::max<std::size_t>(sim.simulator().pending_count(), 1);
  costs.reschedule_ns = replay_reschedule_ns(population, rng);
  costs.step_ns = replay_step_ns(population, rng);

  // Fluid advance and predicted-time retiming on copies of every server's
  // lane, stepped forward 1 ms per call so each call integrates real time.
  std::size_t streams = 0;
  for (const Server& server : sim.servers()) streams += server.lane().size();
  if (streams > 0) {
    const std::size_t reps = std::max<std::size_t>(4, (1u << 20) / streams);
    std::vector<FluidLane> lanes;
    for (const Server& server : sim.servers()) {
      if (server.lane().size() > 0) lanes.push_back(server.lane());
    }
    std::vector<Megabits> underflow;
    std::vector<Seconds> tx_at, full_at, low_at;
    const double per_stream = static_cast<double>(streams);
    costs.advance_ns_per_stream =
        1e9 / per_stream * per_call_seconds(kBatches, reps, [&](std::size_t c) {
          const Seconds at = now + 1e-3 * static_cast<double>(c + 1);
          for (FluidLane& lane : lanes) {
            lane.advance_batch(at, config.warmup, config.duration, underflow);
          }
        });
    costs.predict_ns_per_stream =
        1e9 / per_stream * per_call_seconds(kBatches, reps, [&](std::size_t c) {
          const Seconds at = now + 1e-3 * static_cast<double>(c + 1);
          for (const FluidLane& lane : lanes) {
            lane.fill_predicted_times(at, config.intermittent_safety_cover,
                                      tx_at, full_at, low_at);
          }
        });

    // Allocation with a warm per-server grant-order cache, as the engine
    // calls it on every recompute.
    AllocationScratch scratch;
    std::vector<Mbps> rates;
    std::vector<SchedCache> caches(sim.servers().size());
    const BandwidthScheduler& scheduler = sim.scheduler();
    auto allocate_all = [&]() {
      for (std::size_t s = 0; s < sim.servers().size(); ++s) {
        const Server& server = sim.servers()[s];
        if (server.active_requests().empty()) continue;
        scheduler.allocate(now, server.schedulable_bandwidth(),
                           server.active_requests(), rates, scratch, &caches[s]);
      }
    };
    allocate_all();
    std::size_t busy_servers = 0;
    for (const Server& server : sim.servers()) {
      if (!server.active_requests().empty()) ++busy_servers;
    }
    const double sweep_s = per_call_seconds(
        kBatches, std::max<std::size_t>(2, (1u << 18) / streams),
        [&](std::size_t) { allocate_all(); });
    costs.allocate_us = 1e6 * sweep_s / static_cast<double>(busy_servers);
    costs.allocate_ns_per_stream = 1e9 * sweep_s / per_stream;
  }

  // Admission decisions against the end-of-run servers, for videos drawn
  // from the workload's popularity law.
  const StaticZipfPopularity popularity(config.system.num_videos,
                                        config.zipf_theta);
  constexpr std::size_t kDecisions = 1 << 12;
  std::vector<VideoId> videos(kDecisions);
  for (VideoId& video : videos) video = popularity.sample(now, rng);
  Rng decision_rng(seed ^ 0x5bd1e995u);
  costs.decide_us =
      1e6 * per_call_seconds(kBatches, kDecisions, [&](std::size_t c) {
        const AdmissionDecision decision = sim.controller().decide(
            now, videos[c % kDecisions], config.system.view_bandwidth,
            sim.servers(), decision_rng);
        (void)decision;
      });

  // World setup pieces: placement onto fresh servers, then the bounds of
  // that placed world.
  const std::vector<double> weights = popularity.probabilities(0.0);
  // make_placement(kDomainSpread) builds the policy over an empty topology,
  // which cannot place onto real servers; give it the run's tree instead.
  const std::unique_ptr<PlacementPolicy> placement =
      config.placement.kind == PlacementKind::kDomainSpread
          ? std::make_unique<DomainSpreadPlacement>(sim.topology())
          : make_placement(config.placement.kind);
  std::vector<Server> placed;
  costs.place_ms = 1e3 * per_call_seconds(kBatches, 1, [&](std::size_t c) {
                     placed = make_servers(config.system);
                     Rng place_rng(seed + c);
                     placement->place(sim.catalog(), weights,
                                      config.system.avg_copies, placed, place_rng);
                   });
  const ReplicaDirectory directory(config.system.num_videos, placed);
  costs.bounds_ms = 1e3 * per_call_seconds(kBatches, 1, [&](std::size_t) {
                      const BoundsReport report = compute_bounds(
                          config, sim.catalog(), weights, directory, placed);
                      (void)report;
                    });
  return costs;
}

namespace {

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

void add_layer_metrics(const LayerInputs& in, RunReport& report) {
  using T = TraceEventType;
  const TraceCounts& n = in.counts;
  const LayerCosts& c = in.costs;
  const double arrivals = static_cast<double>(n.count(T::kArrival));
  const double recomputes = static_cast<double>(n.count(T::kRecompute));
  const double changes = static_cast<double>(n.count(T::kAllocationChange));
  const double searches = static_cast<double>(n.count(T::kMigrationSearch));
  const double enqueued = static_cast<double>(n.count(T::kRetryEnqueued));
  const double run_ns = 1e9 * in.untraced_seconds;

  report.add("des.events", in.events, "count");
  report.add("des.events_per_arrival", ratio(in.events, arrivals), "count");
  report.add("des.pending_end", in.pending_end, "count");
  report.add("des.reschedule_ns", c.reschedule_ns, "ns");
  report.add("des.step_ns", c.step_ns, "ns");

  report.add("cluster.streams_per_server", in.streams_per_server, "count");
  report.add("cluster.advance_ns_per_stream", c.advance_ns_per_stream, "ns");
  report.add("cluster.predict_ns_per_stream", c.predict_ns_per_stream, "ns");

  report.add("sched.recomputes", recomputes, "count");
  report.add("sched.streams_per_recompute", ratio(n.recompute_streams, recomputes),
             "count");
  report.add("sched.changes_per_recompute", ratio(changes, recomputes), "count");
  report.add("sched.change_ratio", ratio(changes, n.recompute_streams), "fraction");
  report.add("sched.allocate_us", c.allocate_us, "us");
  report.add("sched.urgent_flips",
             static_cast<double>(n.count(T::kUrgentOn) + n.count(T::kUrgentOff)),
             "count");

  report.add("admission.admit_ratio",
             ratio(static_cast<double>(n.count(T::kAdmit)), arrivals), "fraction");
  report.add("admission.decide_us", c.decide_us, "us");
  report.add("migration.searches", searches, "count");
  report.add("migration.nodes_per_search", ratio(n.search_nodes, searches), "count");
  report.add("migration.plan_hit_ratio",
             ratio(static_cast<double>(n.search_hits), searches), "fraction");
  report.add("migration.per_arrival",
             ratio(static_cast<double>(n.count(T::kMigrateBegin)), arrivals),
             "count");

  const std::uint64_t transitions =
      n.count(T::kServerDown) + n.count(T::kServerUp) +
      n.count(T::kBrownoutBegin) + n.count(T::kBrownoutEnd) +
      n.count(T::kPartitionBegin) + n.count(T::kPartitionEnd);
  report.add("fault.transitions", static_cast<double>(transitions), "count");
  report.add("fault.retry_enqueued", enqueued, "count");
  report.add("fault.readmit_ratio",
             ratio(static_cast<double>(n.count(T::kRetryReadmitted)), enqueued),
             "fraction");
  report.add("fault.sheds", static_cast<double>(n.count(T::kStreamShed)), "count");
  report.add("replication.transfers",
             static_cast<double>(n.count(T::kReplicationBegin)), "count");
  report.add("replication.repairs",
             static_cast<double>(n.count(T::kRepairPlanned)), "count");

  report.add("placement.place_ms", c.place_ms, "ms");
  report.add("analysis.bounds_ms", c.bounds_ms, "ms");

  report.add("sweep.cells", in.cells, "count");
  report.add("sweep.worlds_built", in.worlds_built, "count");
  report.add("sweep.parallel_speedup", in.parallel_speedup, "x");

  report.add("obs.trace_events", static_cast<double>(n.events), "count");
  report.add("obs.trace_dropped", in.trace_dropped, "count");
  report.add("obs.trace_overhead", in.trace_overhead, "fraction");

  // Computed shares: a count from the trace times a replayed per-call cost,
  // over the untraced run time the counts cover. Estimates, not spans.
  report.add("share.advance",
             ratio(n.recompute_streams * c.advance_ns_per_stream, run_ns),
             "frac_computed");
  report.add("share.allocate",
             ratio(n.recompute_streams * c.allocate_ns_per_stream, run_ns),
             "frac_computed");
  report.add("share.retime", ratio(changes * c.reschedule_ns, run_ns),
             "frac_computed");
  report.add("share.admission", ratio(arrivals * 1e3 * c.decide_us, run_ns),
             "frac_computed");
}

}  // namespace perfbench
