/// \file micro.cpp
/// \brief M1: microbenchmarks of the simulator's hot paths
/// (google-benchmark). These guard the performance properties that make
/// paper-scale runs (5 x 1000 h) cheap: O(log n) event handling, near-linear
/// EFTF recomputation, O(log n) Zipf sampling, and — after the
/// allocation-free hot-path rework — zero steady-state heap allocations
/// (reported as the `allocs_per_op` counter).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <numeric>

#include "vodsim/des/event_queue.h"
#include "vodsim/des/simulator.h"
#include "vodsim/engine/experiment.h"
#include "vodsim/engine/policy_matrix.h"
#include "vodsim/engine/sweep_context.h"
#include "vodsim/engine/vod_simulation.h"
#include "vodsim/obs/trace.h"
#include "vodsim/sched/eftf.h"
#include "vodsim/sched/finish_order.h"
#include "vodsim/sched/intermittent.h"
#include "vodsim/util/rng.h"
#include "vodsim/workload/zipf.h"

// --- global allocation instrumentation --------------------------------------
// Every global operator new bumps a counter; benchmarks report the delta per
// iteration as `allocs_per_op`. This is how the "steady-state loop performs
// zero heap allocations" property is demonstrated rather than asserted.

static std::atomic<std::uint64_t> g_heap_allocs{0};

static void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace vodsim;

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

void report_allocs_per_op(benchmark::State& state, std::uint64_t allocs_before,
                          std::uint64_t ops_per_iteration) {
  const auto delta = static_cast<double>(heap_allocs() - allocs_before);
  const auto ops = static_cast<double>(state.iterations()) *
                   static_cast<double>(ops_per_iteration);
  state.counters["allocs_per_op"] = benchmark::Counter(ops > 0 ? delta / ops : 0);
}

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    EventQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      queue.schedule(rng.uniform(0.0, 1000.0), [](Seconds) {});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop().first);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // The engine's dominant pattern: schedule a predicted event, cancel it,
  // reschedule. Fresh queue per iteration (includes construction cost).
  Rng rng(2);
  for (auto _ : state) {
    EventQueue queue;
    for (int i = 0; i < 10000; ++i) {
      const EventId id = queue.schedule(rng.uniform(0.0, 1000.0), [](Seconds) {});
      queue.cancel(id);
    }
    benchmark::DoNotOptimize(queue.empty());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueCancelChurn);

void BM_EventQueueSteadyChurn(benchmark::State& state) {
  // Steady-state churn against a *persistent* queue holding a realistic
  // pending population: each op cancels one live predicted event and
  // schedules its replacement, exactly the reallocation pattern of
  // VodSimulation::reschedule_predicted_events. After warmup this must not
  // allocate at all (allocs_per_op ~ 0): the slab reuses slots and eager
  // cancel removes heap entries in place.
  const std::size_t population = 4096;
  EventQueue queue;
  Rng rng(7);
  std::vector<EventId> pending;
  pending.reserve(population);
  Seconds t = 0.0;
  for (std::size_t i = 0; i < population; ++i) {
    pending.push_back(queue.schedule(t + rng.uniform(0.0, 100.0), [](Seconds) {}));
  }
  // Warm the churn path (grows the heap and slab to their steady
  // footprints) before counting allocations.
  std::size_t cursor = 0;
  for (int i = 0; i < 200000; ++i) {
    queue.cancel(pending[cursor]);
    pending[cursor] = queue.schedule(t + rng.uniform(0.0, 100.0), [](Seconds) {});
    cursor = (cursor + 1) % population;
  }
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    queue.cancel(pending[cursor]);
    pending[cursor] = queue.schedule(t + rng.uniform(0.0, 100.0), [](Seconds) {});
    cursor = (cursor + 1) % population;
  }
  state.SetItemsProcessed(state.iterations());
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_EventQueueSteadyChurn);

void BM_EventQueueRetimeChurn(benchmark::State& state) {
  // Same persistent population as BM_EventQueueSteadyChurn, but each op
  // *retimes* a live predicted event in place (EventQueue::reschedule)
  // instead of cancelling and scheduling a replacement. This is what
  // VodSimulation::reschedule_predicted_events does when a prediction
  // merely moves: no dead entry left in the heap, no slab slot turnover,
  // one sift instead of a lazy-pop plus push.
  const std::size_t population = 4096;
  EventQueue queue;
  Rng rng(7);
  std::vector<EventId> pending;
  pending.reserve(population);
  Seconds t = 0.0;
  for (std::size_t i = 0; i < population; ++i) {
    pending.push_back(queue.schedule(t + rng.uniform(0.0, 100.0), [](Seconds) {}));
  }
  std::size_t cursor = 0;
  for (int i = 0; i < 200000; ++i) {  // warm, as in the churn benchmark
    queue.reschedule(pending[cursor], t + rng.uniform(0.0, 100.0));
    cursor = (cursor + 1) % population;
  }
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    queue.reschedule(pending[cursor], t + rng.uniform(0.0, 100.0));
    cursor = (cursor + 1) % population;
  }
  state.SetItemsProcessed(state.iterations());
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_EventQueueRetimeChurn);

void BM_EftfAllocate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  Video video;
  video.id = 0;
  video.duration = 3600.0;
  video.view_bandwidth = 3.0;
  ClientProfile client{1000.0, 30.0};
  const Mbps capacity = 3.0 * static_cast<double>(n) + 60.0;
  Server server(0, capacity, 1e12);
  std::vector<std::unique_ptr<Request>> owner;
  for (std::size_t i = 0; i < n; ++i) {
    owner.push_back(std::make_unique<Request>(static_cast<RequestId>(i), video,
                                              0.0, client));
    owner.back()->begin_streaming(0.0, 0);
    owner.back()->set_allocation(0.0, 3.0);
    owner.back()->advance(rng.uniform(1.0, 600.0));  // spread remaining data
    server.attach(*owner.back());
  }
  const std::vector<Request*>& active = server.active_requests();
  EftfScheduler scheduler;
  std::vector<Mbps> rates;
  AllocationScratch scratch;
  scheduler.allocate(600.0, capacity, active, rates, scratch);
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    scheduler.allocate(600.0, capacity, active, rates, scratch);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_EftfAllocate)->Arg(10)->Arg(33)->Arg(100)->Arg(300);

void BM_IntermittentAllocate(benchmark::State& state, bool saturated) {
  // One intermittent-scheduler pass over 500 streams on one server, with a
  // warm SchedCache as the engine keeps one. Staged cover spreads from 0
  // to 600 s, so a few streams latch urgent and the rest compete for
  // workahead. Unsaturated: the link covers every grant, so the fits-all
  // shortcut skips the sort. Saturated: 300 Mb/s beyond the drains, far
  // below the workahead demand, so phase 2 sorts and clips.
  constexpr std::size_t kStreams = 500;
  Rng rng(11);
  Video video;
  video.id = 0;
  video.duration = 3600.0;
  video.view_bandwidth = 3.0;
  ClientProfile client{0.2 * video.size(), 30.0};
  Server server(0, 1e4, 1e12);
  std::vector<std::unique_ptr<Request>> owner;
  for (std::size_t i = 0; i < kStreams; ++i) {
    owner.push_back(std::make_unique<Request>(static_cast<RequestId>(i), video,
                                              0.0, client));
    Request& request = *owner.back();
    request.begin_streaming(0.0, 0);
    request.set_allocation(0.0, rng.uniform(3.0, 6.0));
    request.advance(600.0);
    server.attach(request);
  }
  const std::vector<Request*>& active = server.active_requests();
  const Seconds now = 600.0;
  IntermittentScheduler scheduler;
  std::vector<Mbps> rates;
  AllocationScratch scratch;
  SchedCache cache;
  scheduler.allocate(now, 1e9, active, rates, scratch, &cache);
  const Mbps demand = std::accumulate(rates.begin(), rates.end(), 0.0);
  const Mbps capacity =
      saturated ? 3.0 * static_cast<double>(kStreams) + 300.0 : 1.5 * demand;
  scheduler.allocate(now, capacity, active, rates, scratch, &cache);
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    scheduler.allocate(now, capacity, active, rates, scratch, &cache);
    benchmark::DoNotOptimize(rates.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kStreams));
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK_CAPTURE(BM_IntermittentAllocate, unsaturated, false);
BENCHMARK_CAPTURE(BM_IntermittentAllocate, saturated, true);

void BM_RecomputeServer(benchmark::State& state) {
  // The engine's per-event hot loop (VodSimulation::recompute_server),
  // replicated through public APIs: advance every active request on a
  // server, reallocate with EFTF, store the predictions of requests whose
  // rate changed (exact-compare fast path) in the server's lane, and re-key
  // the server's one predicted-event timer. Arg 0 is the active-stream
  // count; arg 1 selects saturated (slack 0 — the paper's interesting
  // operating point, where the eligible sort is skipped) vs. slack
  // (workahead flowing).
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool saturated = state.range(1) != 0;
  Rng rng(5);
  Video video;
  video.id = 0;
  video.duration = 2.0 * 3600.0;
  video.view_bandwidth = 3.0;
  // 20% staging buffer of the video size, 30 Mb/s receive cap (fig5/fig7
  // client settings).
  ClientProfile client{0.2 * video.size(), 30.0};
  const Mbps capacity =
      saturated ? 3.0 * static_cast<double>(n) : 3.0 * static_cast<double>(n) + 60.0;
  Server server(0, capacity, 1e12);
  std::vector<std::unique_ptr<Request>> owner;
  for (std::size_t i = 0; i < n; ++i) {
    owner.push_back(std::make_unique<Request>(static_cast<RequestId>(i), video,
                                              0.0, client));
    Request& request = *owner.back();
    request.begin_streaming(0.0, 0);
    request.set_allocation(0.0, 3.0);
    request.advance(rng.uniform(1.0, 600.0));
    server.attach(request);  // slot i; cache seeding keys off active_index
  }
  const std::vector<Request*>& active = server.active_requests();
  FluidLane& lane = server.lane();
  constexpr double kSafetyCover = 4.0;
  constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();
  EftfScheduler scheduler;
  EventQueue queue;
  EventId timer = kInvalidEventId;
  std::vector<Mbps> rates;
  AllocationScratch scratch;
  SchedCache cache;
  Seconds now = 600.0;

  auto recompute = [&](Seconds t) {
    for (Request* request : active) request->advance(t);
    scheduler.allocate(t, capacity, active, rates, scratch, &cache);
    for (std::size_t i = 0; i < active.size(); ++i) {
      Request& request = *active[i];
      if (rates[i] == request.allocation()) continue;
      request.set_allocation(t, rates[i]);
      // Engine pattern (reschedule_predicted_events, apply_predicted_times):
      // the slot's predicted times, one seq per kept prediction, stored in
      // the stream's lane slot.
      const fluid_detail::PredictedTimes times =
          lane.predicted_times(i, t, kSafetyCover);
      const auto keep = [&](Prediction kind, bool live, Seconds at) {
        if (live) {
          lane.set_prediction(i, kind, EventKey{at, queue.draw_seq()});
        } else {
          lane.clear_prediction(i, kind);
        }
      };
      keep(Prediction::kTxComplete, rates[i] > 0.0, times.tx);
      keep(Prediction::kBufferFull, times.full != kNever, times.full);
      keep(Prediction::kBufferLow, times.low != kNever, times.low);
    }
    // Engine pattern (sync_server_timer): the server's one queue entry
    // follows the lane minimum.
    const EarliestPrediction& next = lane.earliest_prediction();
    if (!next.live()) {
      queue.cancel(timer);
      timer = kInvalidEventId;
    } else if (!queue.rekey(timer, next.key)) {
      timer = queue.schedule_keyed(next.key, [](Seconds) {});
    }
  };

  recompute(now);  // warm: initial allocations + predictions
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    now += 1e-4;  // small fluid step keeps the population in steady state
    recompute(now);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_RecomputeServer)
    ->Args({33, 1})
    ->Args({33, 0})
    ->Args({100, 1})
    ->Args({100, 0})
    ->ArgNames({"streams", "saturated"});

void BM_RecomputeSingleStreamDelta(benchmark::State& state) {
  // The ordering kernel of recompute_server, isolated, under the engine's
  // dominant delta: one stream changed since the previous pass, everyone
  // else is where the last grant left them. incremental=1 is what ships —
  // sort_by_projected_finish repairing the previous grant order through a
  // warm SchedCache. incremental=0 is the pre-cache reference: a full
  // std::sort evaluating projected_finish inside the comparator.
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool incremental = state.range(1) != 0;
  Rng rng(11);
  Video video;
  video.id = 0;
  video.duration = 2.0 * 3600.0;
  video.view_bandwidth = 3.0;
  ClientProfile client{0.2 * video.size(), 30.0};
  Server server(0, 3.0 * static_cast<double>(n) + 60.0, 1e12);
  std::vector<std::unique_ptr<Request>> owner;
  for (std::size_t i = 0; i < n; ++i) {
    owner.push_back(std::make_unique<Request>(static_cast<RequestId>(i), video,
                                              0.0, client));
    Request& request = *owner.back();
    request.begin_streaming(0.0, 0);
    request.set_allocation(0.0, 3.0);
    request.advance(rng.uniform(1.0, 600.0));
    server.attach(request);
  }
  const std::vector<Request*>& active = server.active_requests();
  const FluidLane& lane = server.lane();
  AllocationScratch scratch;
  SchedCache cache;
  Seconds now = 600.0;
  std::size_t victim = 0;
  auto fill_order = [&] {
    scratch.order.clear();
    for (std::size_t i = 0; i < n; ++i) scratch.order.push_back(i);
  };
  fill_order();
  sched_detail::sort_by_projected_finish(now, true, active, scratch, &cache);

  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    now += 1e-3;
    active[victim]->advance(now);  // the single delta: one stream moved
    victim = (victim + 1) % n;
    fill_order();
    if (incremental) {
      sched_detail::sort_by_projected_finish(now, /*earliest_first=*/true,
                                             active, scratch, &cache);
    } else {
      std::sort(scratch.order.begin(), scratch.order.end(),
                [&](std::size_t a, std::size_t b) {
                  const Seconds fa = lane.projected_finish(a, now);
                  const Seconds fb = lane.projected_finish(b, now);
                  if (fa != fb) return fa < fb;
                  return active[a]->id() < active[b]->id();
                });
    }
    benchmark::DoNotOptimize(scratch.order.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_RecomputeSingleStreamDelta)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({300, 0})
    ->Args({300, 1})
    ->ArgNames({"streams", "incremental"});

void BM_TraceRecorderRecord(benchmark::State& state) {
  // Cost of one enabled-path trace emission: a bounds-masked store into the
  // preallocated ring. Steady state (including ring wrap-around) must not
  // allocate.
  TraceConfig config;
  config.enabled = true;
  config.capacity = 1u << 16;
  TraceRecorder recorder(config);
  Seconds t = 0.0;
  RequestId request = 0;
  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    t += 1e-3;
    recorder.record(t, TraceEventType::kAllocationChange, 0, request++, 0, 3.0,
                    4.5);
    benchmark::DoNotOptimize(recorder.size());
  }
  state.SetItemsProcessed(state.iterations());
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_TraceRecorderRecord);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(static_cast<std::size_t>(state.range(0)), 0.271);
  Rng rng(4);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.sample(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(200)->Arg(2000);

void BM_FluidAdvanceBatch(benchmark::State& state) {
  // The tentpole kernel in isolation: one server's fluid advance across all
  // active streams. batched=0 is the scalar single-stream reference — one
  // Request::advance plus one metering interval per stream, in active
  // order; batched=1 is FluidLane::advance_batch — the same per-slot
  // formulas in one pass over the struct-of-arrays with a single batch
  // metering sum. Any per-stream numeric difference between the two would
  // fail FluidLane.BatchAdvanceIsBitIdenticalToPerStream, so this measures
  // layout and loop structure, nothing else.
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  Rng rng(5);
  Video video;
  video.id = 0;
  video.duration = 2.0 * 3600.0;
  video.view_bandwidth = 3.0;
  ClientProfile client{0.2 * video.size(), 30.0};
  Server server(0, 3.0 * static_cast<double>(n) + 60.0, 1e12);
  std::vector<std::unique_ptr<Request>> owner;
  for (std::size_t i = 0; i < n; ++i) {
    owner.push_back(std::make_unique<Request>(static_cast<RequestId>(i), video,
                                              0.0, client));
    Request& request = *owner.back();
    request.begin_streaming(0.0, 0);
    server.attach(request);
    request.set_allocation(0.0, 3.0);
    request.advance(rng.uniform(1.0, 600.0));
  }
  std::vector<Megabits> scratch;
  Seconds now = 600.0;

  const std::uint64_t allocs_before = heap_allocs();
  for (auto _ : state) {
    now += 1e-4;  // small fluid step keeps the population in steady state
    if (batched) {
      const FluidLane::BatchResult batch =
          server.lane().advance_batch(now, 0.0, 1e18, scratch);
      benchmark::DoNotOptimize(batch.transmitted_in_window);
    } else {
      Megabits transmitted = 0.0;
      for (Request* request : server.active_requests()) {
        const Seconds start = request->last_update();
        const Mbps rate = request->allocation();
        request->advance(now);
        if (rate > 0.0 && now > start) transmitted += rate * (now - start);
      }
      benchmark::DoNotOptimize(transmitted);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  report_allocs_per_op(state, allocs_before, 1);
}
BENCHMARK(BM_FluidAdvanceBatch)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({300, 0})
    ->Args({300, 1})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->ArgNames({"streams", "batched"});

namespace {

/// Attaches \p n steady-state streams to \p server, for the fill_* kernel
/// benches below (identical population to BM_FluidAdvanceBatch). The
/// requests bind to the server's lane, so the server must outlive them in
/// place — hence populate-in-place rather than return-by-value.
void populate_server(Server& server, std::size_t n,
                     std::vector<std::unique_ptr<Request>>& owner) {
  Rng rng(5);
  Video video;
  video.id = 0;
  video.duration = 2.0 * 3600.0;
  video.view_bandwidth = 3.0;
  ClientProfile client{0.2 * video.size(), 30.0};
  for (std::size_t i = 0; i < n; ++i) {
    owner.push_back(std::make_unique<Request>(static_cast<RequestId>(i), video,
                                              0.0, client));
    Request& request = *owner.back();
    request.begin_streaming(0.0, 0);
    server.attach(request);
    request.set_allocation(0.0, 3.0);
    request.advance(rng.uniform(1.0, 600.0));
  }
}

}  // namespace

void BM_FluidKeyBatch(benchmark::State& state) {
  // The EFTF/LFTF sort-key pass: batched=0 is the per-candidate
  // FluidLane::projected_finish loop over a candidate index list that
  // sort_by_projected_finish runs when the batch threshold is not met (here
  // every slot is a candidate); batched=1 is
  // FluidLane::fill_projected_finish — one division-heavy vector pass over
  // the lane. Same formula, same doubles out either way (pinned by
  // FluidLane.FillProjectedFinishMatchesScalar).
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  std::vector<std::unique_ptr<Request>> owner;
  Server server(0, 3.0 * static_cast<double>(n) + 60.0, 1e12);
  populate_server(server, n, owner);
  const FluidLane& lane = server.lane();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<Seconds> keys(n);
  const Seconds now = 600.0;
  for (auto _ : state) {
    if (batched) {
      lane.fill_projected_finish(now, keys);
    } else {
      for (const std::size_t index : order) {
        keys[index] = lane.projected_finish(index, now);
      }
    }
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FluidKeyBatch)
    ->Args({300, 0})
    ->Args({300, 1})
    ->Args({3000, 0})
    ->Args({3000, 1})
    ->ArgNames({"streams", "batched"});

void BM_FluidRetimeBatch(benchmark::State& state) {
  // The predicted-event retiming arithmetic: batched=1 is
  // FluidLane::fill_predicted_times — all three event times for every slot
  // in one pass; batched=0 calls FluidLane::predicted_times per slot, as
  // reschedule_predicted_events does for a sparse change (three divisions
  // and the gates, per stream). Neither side schedules events; this
  // isolates the arithmetic the batched recompute_server amortizes.
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  std::vector<std::unique_ptr<Request>> owner;
  Server server(0, 3.0 * static_cast<double>(n) + 60.0, 1e12);
  populate_server(server, n, owner);
  const FluidLane& lane = server.lane();
  std::vector<Seconds> tx(n), full(n), low(n);
  const Seconds now = 600.0;
  const double safety_cover = 4.0;
  for (auto _ : state) {
    if (batched) {
      lane.fill_predicted_times(now, safety_cover, tx, full, low);
    } else {
      for (std::size_t i = 0; i < lane.size(); ++i) {
        const fluid_detail::PredictedTimes times =
            lane.predicted_times(i, now, safety_cover);
        tx[i] = times.tx;
        full[i] = times.full;
        low[i] = times.low;
      }
    }
    benchmark::DoNotOptimize(tx.data());
    benchmark::DoNotOptimize(full.data());
    benchmark::DoNotOptimize(low.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FluidRetimeBatch)
    ->Args({300, 0})
    ->Args({300, 1})
    ->Args({3000, 0})
    ->Args({3000, 1})
    ->ArgNames({"streams", "batched"});

void BM_EndToEndSmallSystemHour(benchmark::State& state) {
  // Whole-engine throughput: one simulated hour of the paper's small
  // system per iteration, with migration and staging enabled.
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    SimulationConfig config;
    config.system = SystemConfig::small_system();
    config.zipf_theta = 0.271;
    config.client.staging_fraction = 0.2;
    config.client.receive_bandwidth = 30.0;
    config.admission.migration.enabled = true;
    config.duration = hours(1);
    config.warmup = 0.0;
    config.seed = seed++;
    VodSimulation simulation(config);
    simulation.run();
    events += simulation.simulator().executed_count();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_EndToEndSmallSystemHour)->Unit(benchmark::kMillisecond);

void BM_EndToEndObservedHour(benchmark::State& state) {
  // Observability overhead on the whole-engine hot loop. The same run as
  // BM_EndToEndSmallSystemHour with the trace recorder (all categories)
  // and/or the probe samplers attached. BM_EndToEndSmallSystemHour itself
  // is the disabled path (null recorder pointer at every emission site) —
  // the acceptance contract is that it stays within noise of the
  // pre-observability baseline, while the fully-on configurations here show
  // the cost of actually recording.
  const bool trace = state.range(0) != 0;
  const bool probe = state.range(1) != 0;
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    SimulationConfig config;
    config.system = SystemConfig::small_system();
    config.zipf_theta = 0.271;
    config.client.staging_fraction = 0.2;
    config.client.receive_bandwidth = 30.0;
    config.admission.migration.enabled = true;
    config.duration = hours(1);
    config.warmup = 0.0;
    config.seed = seed++;
    config.trace.enabled = trace;
    config.probe.enabled = probe;
    VodSimulation simulation(config);
    simulation.run();
    events += simulation.simulator().executed_count();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_EndToEndObservedHour)
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->ArgNames({"trace", "probe"})
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndFig7PolicyMatrix(benchmark::State& state) {
  // The PR-acceptance macro-benchmark: simulated events per second on the
  // fig7 policy-matrix configuration. One iteration runs every Figure 6
  // policy row (P1..P8: {even, predictive} x {migration on/off} x {0%, 20%
  // staging}) on the small system for half a simulated hour with the
  // paper's 30 Mb/s receive cap.
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    for (const PolicySpec& policy : figure6_policies()) {
      SimulationConfig config;
      config.system = SystemConfig::small_system();
      config.zipf_theta = 0.271;
      config.client.receive_bandwidth = 30.0;
      config.duration = hours(0.5);
      config.warmup = 0.0;
      config.seed = seed++;
      config = apply_policy(std::move(config), policy);
      VodSimulation simulation(config);
      simulation.run();
      events += simulation.simulator().executed_count();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_EndToEndFig7PolicyMatrix)->Unit(benchmark::kMillisecond);

void BM_EndToEndFig7SweepPaired(benchmark::State& state) {
  // The production shape of the fig7 experiment: all policy rows share one
  // master seed per iteration (paired trials — how `fig7_policies` and
  // every other experiment binary actually runs the matrix, so rows see
  // identical arrival streams), and the sweep_context:1 variant routes
  // world construction through a SweepContext prepared once per sweep,
  // exactly as ExperimentRunner::run_sweep does. The 0-vs-1 ratio isolates
  // what shared catalogs/popularity/placement-blueprints are worth on a
  // matrix whose per-cell runtime is only half a simulated hour;
  // BM_EndToEndFig7PolicyMatrix above keeps the independent-seed workload
  // for continuity with pre-PR4 recordings.
  const bool use_context = state.range(0) != 0;
  std::uint64_t events = 0;
  std::uint64_t master_seed = 1;
  for (auto _ : state) {
    std::vector<SimulationConfig> configs;
    for (const PolicySpec& policy : figure6_policies()) {
      SimulationConfig config;
      config.system = SystemConfig::small_system();
      config.zipf_theta = 0.271;
      config.client.receive_bandwidth = 30.0;
      config.duration = hours(0.5);
      config.warmup = 0.0;
      configs.push_back(apply_policy(std::move(config), policy));
    }
    SweepContext context;
    if (use_context) context.prepare(configs, 1, master_seed);
    for (SimulationConfig config : configs) {
      config.seed = ExperimentRunner::derive_seed(master_seed, 0);
      VodSimulation simulation(std::move(config),
                               use_context ? &context : nullptr);
      simulation.run();
      events += simulation.simulator().executed_count();
    }
    ++master_seed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_EndToEndFig7SweepPaired)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"sweep_context"})
    ->Unit(benchmark::kMillisecond);

void BM_TournamentSmall(benchmark::State& state) {
  // A shrunk cell grid of the vodsim_tournament tool: 2 schedulers x
  // 2 placements x {off, 1-hop} migration over a 60-title catalog, half a
  // simulated hour per cell, world construction shared through a
  // SweepContext (which also memoizes one BoundsReport per column). Guards
  // the end-to-end cost of the tournament path — including the bounds
  // computation and the gap bookkeeping — at CI smoke scale.
  const std::vector<TournamentSpec> grid = tournament_grid(
      {SchedulerKind::kEftf, SchedulerKind::kLftf},
      {PlacementKind::kEven, PlacementKind::kBsr}, {0, 1}, 0.2);
  std::uint64_t events = 0;
  std::uint64_t master_seed = 1;
  for (auto _ : state) {
    std::vector<SimulationConfig> configs;
    for (const TournamentSpec& spec : grid) {
      SimulationConfig config;
      config.system = SystemConfig::small_system();
      config.system.num_videos = 60;
      config.zipf_theta = 0.271;
      config.duration = hours(0.5);
      config.warmup = 0.0;
      configs.push_back(apply_tournament_spec(std::move(config), spec));
    }
    SweepContext context;
    context.prepare(configs, 1, master_seed);
    for (SimulationConfig config : configs) {
      config.seed = ExperimentRunner::derive_seed(master_seed, 0);
      VodSimulation simulation(std::move(config), &context);
      simulation.run();
      benchmark::DoNotOptimize(simulation.metrics().utilization_gap());
      events += simulation.simulator().executed_count();
    }
    ++master_seed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_TournamentSmall)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
