/// \file main.cpp
/// \brief vodsim_perfbench: runs one benchmark workload and prints its
/// metrics. The last line of standard output is the JSON result.
///
///   vodsim_perfbench --workload <name> --seed <n> --seconds <s>
///                    --trace <0|1> [--commit <id>]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include <unistd.h>

#include "bench.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunReport;

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "vodsim_perfbench: " << error
            << "\nusage: vodsim_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>]\n";
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// JSON string literal (the values printed here are plain ASCII).
std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out + "\"";
}

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "vodsim_perfbench: refusing to measure a build without NDEBUG "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
  return 3;
#endif
  // These switch tracing, auditing or the engine mode on inside the library
  // and would change what is measured.
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("VODSIM_", 0) == 0 || entry.rfind("REPRO_", 0) == 0) {
      std::cerr << "vodsim_perfbench: refusing to run with "
                << entry.substr(0, entry.find('=')) << " set\n";
      return 2;
    }
  }
  RunOptions options;
  std::string commit = "unknown";
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have[0] = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have[1] = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have[2] = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have[3] = true;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) usage("missing flag");
  if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }

  std::cout << "provenance: cpu=" << quoted(cpu_model())
            << " nproc=" << std::thread::hardware_concurrency()
            << " compiler=" << quoted(PERFBENCH_COMPILER)
            << " build_type=" << PERFBENCH_BUILD_TYPE
            << " flags=" << quoted(PERFBENCH_CXX_FLAGS) << " commit=" << commit
            << "\n";
  std::cout << "workload: " << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << options.trace
            << "\n";

  const std::string self_test = perfbench::aggregation_self_test();
  std::cout << "self-test: " << (self_test.empty() ? "ok" : self_test) << "\n";

  RunReport report;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::invalid_argument& error) {
    usage(error.what());
  }

  bool finite = true;
  for (const perfbench::Metric& metric : report.metrics) {
    finite = finite && std::isfinite(metric.value);
  }
  const bool correct = self_test.empty() && report.failed == 0 && finite &&
                       report.attempted > 0;
  for (const std::string& note : report.notes) std::cout << "note: " << note << "\n";
  for (const std::string& failure : report.failures) {
    std::cout << "FAILED: " << failure << "\n";
  }
  for (const perfbench::Metric& metric : report.metrics) {
    std::printf("  %-34s %22.9g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::fflush(stdout);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& metric = report.metrics[i];
    if (i > 0) json += ", ";
    json += quoted(metric.name) + ": {\"value\": " +
            number(std::isfinite(metric.value) ? metric.value : 0.0) +
            ", \"unit\": " + quoted(metric.unit) + "}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
