#pragma once

/// \file bench.h
/// \brief Shared types of the vodsim benchmark program: run options, the
/// report a workload fills in, and host-side timing helpers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of \p values (mean of the middle pair for even sizes); 0 if empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// One pass of the host-speed reference (reference.cpp), in host seconds.
double reference_pass();

/// Host seconds of one reference pass at the benchmark's reference speed.
/// Host timings are scaled to that speed: a timing taken while passes took
/// twice this long counts half. The value only fixes the scale; it is about
/// the fastest pass seen on a 4-core Xeon (Emerald Rapids) KVM guest.
constexpr double kReferencePassSeconds = 0.035;

/// Factor that scales host seconds measured alongside the reference passes
/// \p passes to the reference speed (1 when there are none).
inline double reference_scale(const std::vector<double>& passes) {
  double total = 0.0;
  for (double pass : passes) total += pass;
  if (passes.empty() || !(total > 0.0)) return 1.0;
  return kReferencePassSeconds * static_cast<double>(passes.size()) / total;
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< host seconds the timing loop runs for
  bool trace = false;     ///< false: end-to-end metrics; true: per-layer
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. Every simulation trial the run executes
/// is one attempted operation; a trial that throws or fails a correctness
/// check is a failed one.
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< why, for the first few failures
  std::vector<Metric> metrics;
  std::vector<std::string> notes;     ///< human-readable context lines

  void attempt(const std::string& failure) {
    ++attempted;
    if (failure.empty()) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(failure);
  }

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Runs one named workload (workloads.cpp). Throws std::invalid_argument
/// for an unknown name.
RunReport run_workload(const RunOptions& options);

/// The aggregation self-test (workloads.cpp): "" when trace-derived counts
/// match the trial counters on a tiny world and an undersized ring is
/// reported as a failed traced run; otherwise what went wrong.
std::string aggregation_self_test();

}  // namespace perfbench
