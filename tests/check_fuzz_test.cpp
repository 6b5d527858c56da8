// Bounded fuzzing under ctest: the pathology corpus plus a fixed batch of
// random scenarios, every one run through the engine with the invariant
// auditor attached and — where supported — diffed against the reference
// oracle. The seed is pinned so the batch is reproducible; use the
// standalone `vodsim_fuzz` tool for open-ended exploration.

#include <gtest/gtest.h>

#include "vodsim/check/fuzzer.h"
#include "vodsim/util/rng.h"

namespace vodsim {
namespace {

TEST(ScenarioFuzz, CorpusAndRandomBatchPass) {
  int oracle_checked = 0;

  for (const SimulationConfig& config : pathology_corpus()) {
    const FuzzResult result = run_scenario(config);
    if (result.oracle_checked) ++oracle_checked;
    ASSERT_TRUE(result.passed)
        << "corpus seed=" << config.seed << ": " << result.failure
        << "\n"
        << to_gtest_case(shrink_scenario(config), "ShrunkCorpusReproducer");
  }

  constexpr int kScenarios = 250;
  Rng rng(42);
  for (int i = 0; i < kScenarios; ++i) {
    const SimulationConfig config = random_scenario(rng);
    const FuzzResult result = run_scenario(config);
    if (result.oracle_checked) ++oracle_checked;
    ASSERT_TRUE(result.passed)
        << "scenario " << i << " seed=" << config.seed << ": " << result.failure
        << "\n"
        << to_gtest_case(shrink_scenario(config), "ShrunkReproducer");
  }

  // The oracle's exclusions (interactivity, buffer-aware admission, retry/
  // repair/brownout fault extensions, and failure-domain topology) must
  // not hollow out the differential side of the batch: a solid plurality
  // of scenarios stays within its scope. (Every scenario still goes
  // through the auditor, whose meter reconciliation has no exclusions.)
  EXPECT_GE(oracle_checked, 2 * kScenarios / 5);
}

// Chaos configs (crashes + brownouts + retry + repair + correlated groups)
// go through the same audited run: the batched kernel's metering must
// reconcile with the auditor's windowed flow through shed/drop/readmission
// churn, not just steady-state streaming.
TEST(ScenarioFuzz, ChaosBatchPasses) {
  constexpr int kScenarios = 25;
  Rng rng(777);
  for (int i = 0; i < kScenarios; ++i) {
    const SimulationConfig config = random_fault_scenario(rng);
    const FuzzResult result = run_scenario(config);
    ASSERT_TRUE(result.passed)
        << "chaos scenario " << i << " seed=" << config.seed << ": "
        << result.failure;
  }
}

// Regression: the shrinker's num_servers-halving transform used to clamp
// only one server-indexed knob, so a shrunk chaos reproducer could declare a
// correlated group (or a topology tree) referencing servers beyond its own
// num_servers — the emitted gtest case then failed validation or, worse,
// described faults on servers that do not exist. clamp_to_servers is the
// extracted fix; every server-indexed knob must come back in range and the
// clamped config must validate.
TEST(ScenarioShrink, HalvingClampsServerIndexedKnobs) {
  SimulationConfig config;
  config.system.num_servers = 8;
  config.topology.enabled = true;
  config.topology.racks = 8;
  config.topology.zones = 6;
  config.failure.enabled = true;
  config.failure.correlated.enabled = true;
  config.failure.correlated.group_size = 6;
  config.validate();  // sane before the shrink

  // What the halving transform does to the world size…
  config.system.num_servers = 2;
  // …must be followed by the clamp, or the knobs dangle past the cluster.
  clamp_to_servers(config);

  EXPECT_LE(config.failure.correlated.group_size, config.system.num_servers);
  EXPECT_LE(config.topology.racks, config.system.num_servers);
  EXPECT_LE(config.topology.zones, config.topology.racks);
  EXPECT_NO_THROW(config.validate());
}

}  // namespace
}  // namespace vodsim
