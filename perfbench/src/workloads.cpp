/// \file workloads.cpp
/// \brief The benchmark's named workloads and the runs that time them.
///
/// Single-world workloads (paper_large, dense_intermittent, fault_storm)
/// pre-generate one Poisson arrival trace per trial from the run seed and
/// replay it through VodSimulation(config, trace): open-loop input of
/// independent viewers, fixed in simulated time. sweep_fig7 runs the paper's
/// Figure 7 policy matrix through ExperimentRunner::run_sweep.
///
/// A run repeats its trials until --seconds of host time have passed (every
/// trial at least once). Simulated outcomes come from each trial's first
/// run; repeats must reproduce them bit for bit. Host timings are scaled to
/// the reference speed of reference.cpp (see bench.h).

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "vodsim/analysis/bounds.h"
#include "vodsim/engine/experiment.h"
#include "vodsim/engine/policy_matrix.h"
#include "vodsim/engine/sweep_context.h"
#include "vodsim/engine/vod_simulation.h"
#include "vodsim/util/thread_pool.h"
#include "vodsim/workload/drift.h"
#include "vodsim/workload/trace.h"

namespace perfbench {

using namespace vodsim;

namespace {

// ---- workload definitions ----------------------------------------------

/// The paper's large system under its headline policy: EFTF, 20% staging,
/// 30 Mb/s receive cap, DRM chain 1, even placement.
SimulationConfig paper_large_config() {
  SimulationConfig config;
  config.system = SystemConfig::large_system();
  config.client.staging_fraction = 0.2;
  config.client.receive_bandwidth = 30.0;
  config.scheduler = SchedulerKind::kEftf;
  config.placement.kind = PlacementKind::kEven;
  config.admission.migration.enabled = true;
  config.admission.migration.max_chain_length = 1;
  config.admission.migration.max_hops_per_request = 1;
  config.zipf_theta = 0.271;
  config.load_factor = 1.0;
  config.duration = hours(20);
  config.warmup = hours(4);
  return config;
}

/// About 1000 streams per server: 4 x 1500 Mb/s at 1.5 Mb/s views, the
/// intermittent scheduler with buffer-aware admission.
SimulationConfig dense_intermittent_config() {
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.system.name = "dense";
  config.system.num_servers = 4;
  config.system.server_bandwidth = 1500.0;
  config.system.view_bandwidth = 1.5;
  config.client.staging_fraction = 0.25;
  config.client.receive_bandwidth = 4.5;
  config.scheduler = SchedulerKind::kIntermittent;
  config.admission.buffer_aware = true;
  config.admission.migration.enabled = true;
  config.admission.migration.max_chain_length = 1;
  config.admission.migration.max_hops_per_request = 1;
  config.zipf_theta = 0.271;
  config.load_factor = 0.9;
  config.duration = hours(0.5);
  config.warmup = hours(0.1);
  return config;
}

/// paper_large on a 5-rack / 2-zone tree with domain_spread placement and
/// every fault class the engine models, plus retry, repair, dynamic
/// replication and viewer pauses.
SimulationConfig fault_storm_config() {
  SimulationConfig config = paper_large_config();
  config.duration = hours(12);
  config.warmup = hours(2);
  config.topology.enabled = true;
  config.topology.racks = 5;
  config.topology.zones = 2;
  config.placement.kind = PlacementKind::kDomainSpread;
  FailureConfig& failure = config.failure;
  failure.enabled = true;
  failure.mean_time_between_failures = hours(50);
  failure.mean_time_to_repair = hours(1);
  failure.recover_via_migration = true;
  failure.brownout.enabled = true;
  failure.brownout.mean_time_between = hours(10);
  failure.domains.rack_outage.enabled = true;
  failure.domains.rack_outage.mean_time_between = hours(5);
  failure.domains.rack_outage.mean_duration = minutes(20);
  failure.domains.zone_brownout.enabled = true;
  failure.domains.zone_brownout.mean_time_between = hours(5);
  failure.domains.partition.enabled = true;
  failure.domains.partition.mean_time_between = hours(2);
  failure.retry.enabled = true;
  failure.retry.max_queue = 256;
  failure.repair.enabled = true;
  failure.repair.down_threshold = hours(0.5);
  config.replication.enabled = true;
  config.interactivity.enabled = true;
  config.interactivity.pauses_per_hour = 2.0;
  return config;
}

struct SingleWorkload {
  const char* name;
  SimulationConfig (*make_config)();
  int trials;                   ///< distinct trial seeds per run
  std::size_t trace_capacity;   ///< ring events for the traced twin
};

const SingleWorkload kSingleWorkloads[] = {
    {"paper_large", paper_large_config, 6, std::size_t{1} << 23},
    {"dense_intermittent", dense_intermittent_config, 4, std::size_t{1} << 24},
    {"fault_storm", fault_storm_config, 24, std::size_t{1} << 23},
};

/// The Figure 7 matrix: P1..P8 over the theta grid on the small system.
std::vector<SimulationConfig> sweep_fig7_configs() {
  SimulationConfig base;
  base.system = SystemConfig::small_system();
  base.client.receive_bandwidth = 30.0;
  base.duration = hours(10);
  base.warmup = hours(1);
  std::vector<SimulationConfig> configs;
  for (const PolicySpec& policy : figure6_policies()) {
    for (double theta : {-1.5, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0}) {
      SimulationConfig config = base;
      config.zipf_theta = theta;
      configs.push_back(apply_policy(config, policy));
    }
  }
  return configs;
}

constexpr std::size_t kSweepThreads = 4;
constexpr int kExtraSetups = 4;
constexpr std::size_t kSweepTraceCapacity = std::size_t{1} << 21;

// ---- trial plumbing ------------------------------------------------------

/// A trial's simulated statistics as exact bit patterns, compared between a
/// trial's repeats, between a run and its traced twin, and between a sweep
/// cell and its re-run.
using Fingerprint = std::vector<std::uint64_t>;

Fingerprint fingerprint(const TrialResult& r) {
  Fingerprint f;
  for (double v : {r.utilization, r.rejection_ratio, r.migrations_per_arrival,
                   r.bound_utilization, r.bound_rejection, r.availability,
                   r.glitch_seconds, r.mean_recovery_time}) {
    f.push_back(std::bit_cast<std::uint64_t>(v));
  }
  for (std::uint64_t v :
       {r.arrivals, r.accepts, r.rejects, r.migration_steps, r.drops,
        r.underflow_events, r.continuity_violations, r.interruptions,
        r.server_downs, r.sheds, r.retry_enqueued, r.readmissions,
        r.retry_abandoned, r.repairs, r.partitions}) {
    f.push_back(v);
  }
  return f;
}

Fingerprint fingerprint(const VodSimulation& sim) {
  Fingerprint f = fingerprint(TrialResult::from(sim));
  f.push_back(sim.simulator().executed_count());
  return f;
}

/// The per-trial correctness gate on a finished trial: "" when it passes.
std::string check_trial(const BoundsReport& bounds, const Metrics& metrics) {
  if (metrics.arrivals() != metrics.accepts() + metrics.rejects()) {
    return "arrivals " + std::to_string(metrics.arrivals()) + " != accepts " +
           std::to_string(metrics.accepts()) + " + rejects " +
           std::to_string(metrics.rejects());
  }
  const std::string audit = audit_bounds(bounds, metrics);
  return audit.empty() ? "" : "audit_bounds: " + audit;
}

/// Simulated outcomes of one trial, in the units the report uses.
struct Outcome {
  double utilization = 0.0;
  double rejection_ratio = 0.0;
  double drops_per_1k = 0.0;
  double interruptions_per_1k = 0.0;
  double utilization_gap = 0.0;
  double bound_utilization = 1.0;
  double arrivals = 0.0;
};

Outcome outcome_of(const TrialResult& r) {
  const double accepts = static_cast<double>(std::max<std::uint64_t>(r.accepts, 1));
  Outcome o;
  o.utilization = r.utilization;
  o.rejection_ratio = r.rejection_ratio;
  o.drops_per_1k = 1e3 * static_cast<double>(r.drops) / accepts;
  o.interruptions_per_1k = 1e3 * static_cast<double>(r.interruptions) / accepts;
  o.utilization_gap = r.utilization_gap;
  o.bound_utilization = r.bound_utilization;
  o.arrivals = static_cast<double>(r.arrivals);
  return o;
}

/// Mean outcome over trials.
Outcome mean_outcome(const std::vector<Outcome>& outcomes) {
  Outcome mean{};
  mean.bound_utilization = 0.0;
  for (const Outcome& o : outcomes) {
    mean.utilization += o.utilization;
    mean.rejection_ratio += o.rejection_ratio;
    mean.drops_per_1k += o.drops_per_1k;
    mean.interruptions_per_1k += o.interruptions_per_1k;
    mean.utilization_gap += o.utilization_gap;
    mean.bound_utilization += o.bound_utilization;
    mean.arrivals += o.arrivals;
  }
  const double n = static_cast<double>(std::max<std::size_t>(outcomes.size(), 1));
  mean.utilization /= n;
  mean.rejection_ratio /= n;
  mean.drops_per_1k /= n;
  mean.interruptions_per_1k /= n;
  mean.utilization_gap /= n;
  mean.bound_utilization /= n;
  mean.arrivals /= n;
  return mean;
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The end-to-end metric set. The simulated outcomes are reported in forms
/// that are never zero (the raw rates appear in the traced run's sim.*
/// metrics): acceptance = 1 - rejection ratio; retention and continuity are
/// accepts / (accepts + drops) and accepts / (accepts + interruptions);
/// bound_attainment is measured utilization over the analytic upper bound.
void add_end_to_end(RunReport& report, double arrivals_per_s, double setup_s,
                    const Outcome& o) {
  report.add("arrivals_per_s", arrivals_per_s, "arrivals/s");
  report.add("setup_s", setup_s, "s");
  report.add("peak_rss_mb", peak_rss_mib(), "MiB");
  report.add("utilization", o.utilization, "fraction");
  report.add("acceptance_ratio", 1.0 - o.rejection_ratio, "fraction");
  report.add("retention_ratio", 1e3 / (1e3 + o.drops_per_1k), "fraction");
  report.add("continuity_ratio", 1e3 / (1e3 + o.interruptions_per_1k), "fraction");
  report.add("bound_attainment", o.utilization / o.bound_utilization, "fraction");
}

/// Unscaled host throughput and the reference pass time, so the scaling
/// behind the end-to-end timings can be checked.
void add_host_metrics(RunReport& report, double host_rate,
                      const std::vector<double>& passes) {
  report.add("host.raw_arrivals_per_s", host_rate, "arrivals/s");
  report.add("host.reference_ms", 1e3 * median(passes), "ms");
}

void add_sim_outcomes(RunReport& report, const Outcome& o) {
  report.add("sim.rejection_ratio", o.rejection_ratio, "fraction");
  report.add("sim.drops_per_1k_accepts", o.drops_per_1k, "count");
  report.add("sim.interruptions_per_1k_accepts", o.interruptions_per_1k, "count");
  report.add("sim.utilization_gap", o.utilization_gap, "fraction");
}

std::string describe(const std::exception& error) {
  return std::string("threw: ") + error.what();
}

/// Pre-generates trial \p config's arrivals: the Poisson stream of
/// independent viewers the engine itself would draw for this seed.
RequestTrace make_arrivals(const SimulationConfig& config) {
  const StaticZipfPopularity popularity(config.system.num_videos, config.zipf_theta);
  RequestGenerator generator(PoissonProcess(config.arrival_rate()), popularity,
                             SeedPlan::derive(config.seed).arrival);
  return RequestTrace::record_until(generator, config.duration);
}

// ---- single-world workloads ---------------------------------------------

RunReport run_single(const SingleWorkload& workload, const RunOptions& options) {
  RunReport report;
  const std::size_t trials = static_cast<std::size_t>(workload.trials);
  std::vector<SimulationConfig> configs;
  std::vector<RequestTrace> inputs;
  const auto input_start = Clock::now();
  for (std::size_t k = 0; k < trials; ++k) {
    SimulationConfig config = workload.make_config();
    config.seed = ExperimentRunner::derive_seed(options.seed, static_cast<int>(k));
    inputs.push_back(make_arrivals(config));
    configs.push_back(std::move(config));
  }
  report.notes.push_back("input: " + std::to_string(trials) + " trials, " +
                         std::to_string(inputs[0].size()) +
                         " arrivals in trial 0, generated in " +
                         std::to_string(seconds_since(input_start)) + " s");

  // Timing loop: cycle through the trials until the budget is spent. Each
  // timed run() is followed by one pass of the host-speed reference.
  std::vector<std::optional<Fingerprint>> first(trials);
  std::vector<Outcome> outcomes(trials);
  std::vector<std::vector<double>> run_seconds(trials);
  std::vector<double> setup_seconds;
  std::vector<double> passes;
  const auto loop_start = Clock::now();
  for (std::size_t i = 0; i < trials || seconds_since(loop_start) < options.seconds;
       ++i) {
    const std::size_t k = i % trials;
    std::string failure;
    try {
      // One setup is far shorter than one run and noisier, so each
      // iteration times a few more, spreading the samples over the window.
      for (int extra = 0; extra < kExtraSetups; ++extra) {
        const auto setup_start = Clock::now();
        const VodSimulation world(configs[k], inputs[k]);
        setup_seconds.push_back(seconds_since(setup_start));
      }
      const auto setup_start = Clock::now();
      VodSimulation sim(configs[k], inputs[k]);
      setup_seconds.push_back(seconds_since(setup_start));
      const auto run_start = Clock::now();
      const Metrics& metrics = sim.run();
      run_seconds[k].push_back(seconds_since(run_start));
      passes.push_back(reference_pass());
      failure = check_trial(sim.bounds(), metrics);
      const Fingerprint print = fingerprint(sim);
      if (!first[k]) {
        first[k] = print;
        outcomes[k] = outcome_of(TrialResult::from(sim));
      } else if (*first[k] != print) {
        failure = "repeat of trial " + std::to_string(k) + " diverged";
      }
    } catch (const std::exception& error) {
      failure = describe(error);
    }
    report.attempt(failure);
  }

  // Host throughput: window arrivals per second of run(), over every timed
  // run, and the median setup, both scaled to the reference speed.
  double arrivals = 0.0;
  double seconds = 0.0;
  std::vector<double> all_seconds;
  for (std::size_t k = 0; k < trials; ++k) {
    for (double s : run_seconds[k]) {
      arrivals += outcomes[k].arrivals;
      seconds += s;
      all_seconds.push_back(s);
    }
  }
  const double host_rate = seconds > 0.0 ? arrivals / seconds : 0.0;
  const double scale = reference_scale(passes);
  std::sort(all_seconds.begin(), all_seconds.end());
  if (!all_seconds.empty()) {
    report.notes.push_back(
        "timed " + std::to_string(all_seconds.size()) + " run() calls (seconds min " +
        std::to_string(all_seconds.front()) + ", median " +
        std::to_string(median(all_seconds)) + ", max " +
        std::to_string(all_seconds.back()) + "), " +
        std::to_string(setup_seconds.size()) + " world setups; reference pass median " +
        std::to_string(median(passes)) + " s");
  }
  const Outcome mean = mean_outcome(outcomes);

  if (!options.trace) {
    add_end_to_end(report, host_rate / scale, median(setup_seconds) * scale, mean);
    return report;
  }

  // Traced run: trial 0 again, untraced (its end state feeds the layer
  // replays) and traced with a ring sized to hold every event.
  LayerInputs layers;
  std::string failure;
  try {
    VodSimulation plain(configs[0], inputs[0]);
    const auto plain_start = Clock::now();
    plain.run();
    layers.untraced_seconds = seconds_since(plain_start);
    run_seconds[0].push_back(layers.untraced_seconds);

    SimulationConfig traced_config = configs[0];
    traced_config.trace.enabled = true;
    traced_config.trace.categories = kTraceAllCategories;
    traced_config.trace.capacity = workload.trace_capacity;
    VodSimulation traced(traced_config, inputs[0]);
    const auto traced_start = Clock::now();
    traced.run();
    layers.trace_overhead =
        seconds_since(traced_start) / median(run_seconds[0]) - 1.0;
    layers.trace_dropped = static_cast<double>(traced.trace()->dropped());

    if (fingerprint(traced) != fingerprint(plain)) {
      failure = "traced twin of trial 0 diverged from the untraced run";
    } else {
      failure = check_trial(traced.bounds(), traced.metrics());
    }
    layers.counts = count_trace(*traced.trace());
    layers.events = static_cast<double>(plain.simulator().executed_count());
    layers.pending_end = static_cast<double>(plain.simulator().pending_count());
    layers.streams_per_server = plain.occupancy().mean_active;
    layers.cells = 1.0;
    layers.worlds_built = 1.0;
    layers.costs = replay_layers(plain, options.seed);
  } catch (const std::exception& error) {
    failure = describe(error);
  }
  report.attempt(failure);
  add_layer_metrics(layers, report);
  add_host_metrics(report, host_rate, passes);
  add_sim_outcomes(report, mean);
  return report;
}

// ---- sweep_fig7 ----------------------------------------------------------

RunReport run_sweep_fig7(const RunOptions& options) {
  RunReport report;
  const std::vector<SimulationConfig> configs = sweep_fig7_configs();
  constexpr int kTrials = 4;
  const std::size_t cells = configs.size() * kTrials;
  report.notes.push_back("input: " + std::to_string(cells) + " cells (" +
                         std::to_string(configs.size()) + " configs x " +
                         std::to_string(kTrials) + " trials), " +
                         std::to_string(kSweepThreads) + " threads");

  // Timing loop: whole sweeps, each preceded by timed SweepContext builds.
  ExperimentRunner runner(kSweepThreads);
  std::vector<double> setup_seconds;
  std::vector<double> sweep_seconds;
  std::vector<double> passes;  // one reference pass after each sweep
  double swept_arrivals = 0.0;
  std::vector<Fingerprint> first;  // of the first sweep that completed
  std::vector<TrialResult> first_results;
  bool swept = false;
  const auto loop_start = Clock::now();
  while (!swept || seconds_since(loop_start) < options.seconds) {
    swept = true;
    for (int extra = 0; extra <= kExtraSetups; ++extra) {
      SweepContext context;
      const auto setup_start = Clock::now();
      context.prepare(configs, kTrials, options.seed);
      setup_seconds.push_back(seconds_since(setup_start));
    }
    std::vector<ExperimentPoint> points;
    try {
      const auto start = Clock::now();
      points = runner.run_sweep(configs, kTrials, options.seed);
      sweep_seconds.push_back(seconds_since(start));
      passes.push_back(reference_pass());
    } catch (const std::exception& error) {
      for (std::size_t c = 0; c < cells; ++c) report.attempt(describe(error));
      continue;
    }
    std::vector<Fingerprint> prints;
    double arrivals = 0.0;
    std::vector<TrialResult> results;
    for (const ExperimentPoint& point : points) {
      for (const TrialResult& trial : point.trials) {
        prints.push_back(fingerprint(trial));
        results.push_back(trial);
        arrivals += static_cast<double>(trial.arrivals);
      }
    }
    swept_arrivals += arrivals;
    const bool repeat = !first.empty();
    for (std::size_t c = 0; c < cells; ++c) {
      std::string failure;
      const TrialResult& r = results[c];
      if (r.arrivals != r.accepts + r.rejects) failure = "arrivals != accepts + rejects";
      if (repeat && failure.empty() && first[c] != prints[c]) {
        failure = "repeat of cell " + std::to_string(c) + " diverged";
      }
      report.attempt(failure);
    }
    if (!repeat) {
      first = std::move(prints);
      first_results = std::move(results);
    }
  }
  report.notes.push_back("timed " + std::to_string(sweep_seconds.size()) + " sweeps");

  // Verification pass: every cell again through VodSimulation sharing one
  // prepared SweepContext, so audit_bounds sees each cell's Metrics and the
  // cell must reproduce run_sweep's result bit for bit. Traced when the
  // per-layer metrics are requested.
  SweepContext context;
  context.prepare(configs, kTrials, options.seed);
  TraceCounts counts;
  double events = 0.0;
  std::mutex counts_mutex;
  std::vector<std::string> cell_failure(cells);
  ThreadPool pool(kSweepThreads);
  const auto verify_start = Clock::now();
  pool.parallel_for(cells, [&](std::size_t c) {
    try {
      SimulationConfig config = configs[c / kTrials];
      config.seed = ExperimentRunner::derive_seed(options.seed, static_cast<int>(c % kTrials));
      if (options.trace) {
        config.trace.enabled = true;
        config.trace.categories = kTraceAllCategories;
        config.trace.capacity = kSweepTraceCapacity;
      }
      VodSimulation sim(std::move(config), &context);
      sim.run();
      std::string failure = check_trial(sim.bounds(), sim.metrics());
      if (failure.empty() && c < first_results.size() &&
          fingerprint(TrialResult::from(sim)) != fingerprint(first_results[c])) {
        failure = "re-run of cell " + std::to_string(c) + " diverged from run_sweep";
      }
      const TraceCounts cell_counts =
          options.trace ? count_trace(*sim.trace()) : TraceCounts{};
      {
        const std::lock_guard<std::mutex> lock(counts_mutex);
        counts.merge(cell_counts);
        events += static_cast<double>(sim.simulator().executed_count());
      }
      cell_failure[c] = failure;
    } catch (const std::exception& error) {
      cell_failure[c] = describe(error);
    }
  });
  const double verify_seconds = seconds_since(verify_start);
  for (const std::string& failure : cell_failure) report.attempt(failure);

  std::vector<Outcome> outcomes;
  for (const TrialResult& r : first_results) outcomes.push_back(outcome_of(r));
  const Outcome mean = mean_outcome(outcomes);
  // Arrivals per second of run_sweep and the median prepare, scaled to the
  // reference speed as in run_single.
  double seconds = 0.0;
  for (double s : sweep_seconds) seconds += s;
  const double host_rate = seconds > 0.0 ? swept_arrivals / seconds : 0.0;
  const double scale = reference_scale(passes);

  if (!options.trace) {
    add_end_to_end(report, host_rate / scale, median(setup_seconds) * scale, mean);
    return report;
  }

  // Per-layer: the sweep once more on one thread (parallel speedup and the
  // serial run time the trace counts are set against), and replays on the
  // end state of the P4 cell at theta 0.25 (even placement, DRM, staging).
  LayerInputs layers;
  std::string failure;
  try {
    ExperimentRunner serial(1);
    const auto serial_start = Clock::now();
    serial.run_sweep(configs, kTrials, options.seed);
    const double serial_seconds = seconds_since(serial_start);
    layers.untraced_seconds = serial_seconds;
    // The verification pass is the traced sweep; run_sweep the untraced one.
    layers.trace_overhead = verify_seconds / median(sweep_seconds) - 1.0;
    layers.parallel_speedup = serial_seconds / median(sweep_seconds);
    layers.counts = counts;
    layers.events = events;
    layers.cells = static_cast<double>(cells);
    layers.worlds_built = static_cast<double>(context.placement_count());

    SimulationConfig probe = configs[3 * 9 + 5];
    probe.seed = ExperimentRunner::derive_seed(options.seed, 0);
    VodSimulation sim(probe, &context);
    sim.run();
    layers.pending_end = static_cast<double>(sim.simulator().pending_count());
    layers.streams_per_server = sim.occupancy().mean_active;
    layers.costs = replay_layers(sim, options.seed);
  } catch (const std::exception& error) {
    failure = describe(error);
  }
  report.attempt(failure);
  add_layer_metrics(layers, report);
  add_host_metrics(report, host_rate, passes);
  add_sim_outcomes(report, mean);
  return report;
}

}  // namespace

RunReport run_workload(const RunOptions& options) {
  for (const SingleWorkload& workload : kSingleWorkloads) {
    if (options.workload == workload.name) return run_single(workload, options);
  }
  if (options.workload == "sweep_fig7") return run_sweep_fig7(options);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

std::string aggregation_self_test() {
  // A tiny small-system world: zero warmup (every event inside the metrics
  // window), no faults, DRM on so migrations happen.
  SimulationConfig config;
  config.system = SystemConfig::small_system();
  config.client.staging_fraction = 0.2;
  config.client.receive_bandwidth = 30.0;
  config.admission.migration.enabled = true;
  config.load_factor = 1.2;
  config.duration = hours(3);
  config.warmup = 0.0;
  config.seed = 7;
  config.trace.enabled = true;
  config.trace.categories = kTraceAllCategories;
  config.trace.capacity = std::size_t{1} << 22;

  using T = TraceEventType;
  try {
    VodSimulation sim(config);
    sim.run();
    const TraceCounts counts = count_trace(*sim.trace());
    const TrialResult r = TrialResult::from(sim);
    const std::pair<std::uint64_t, std::uint64_t> pairs[] = {
        {counts.count(T::kArrival), r.arrivals},
        {counts.count(T::kAdmit), r.accepts},
        {counts.count(T::kReject), r.rejects},
        {counts.count(T::kMigrateBegin), r.migration_steps},
    };
    const char* names[] = {"arrival", "admit", "reject", "migrate_begin"};
    for (std::size_t i = 0; i < 4; ++i) {
      if (pairs[i].first != pairs[i].second) {
        return std::string("trace ") + names[i] + " count " +
               std::to_string(pairs[i].first) + " != trial counter " +
               std::to_string(pairs[i].second);
      }
    }
    if (r.rejects == 0 || r.migration_steps == 0) {
      return "self-test world produced no rejects or no migrations";
    }
  } catch (const std::exception& error) {
    return std::string("self-test world threw: ") + error.what();
  }

  // An undersized ring must surface as a failed traced run.
  config.trace.capacity = 64;
  try {
    VodSimulation small_ring(config);
    small_ring.run();
    try {
      count_trace(*small_ring.trace());
    } catch (const std::runtime_error&) {
      return "";
    }
  } catch (const std::exception& error) {
    return std::string("self-test world threw: ") + error.what();
  }
  return "an overflowed trace ring was not reported as a failure";
}

}  // namespace perfbench
