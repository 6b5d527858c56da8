#pragma once

/// \file schedule.h
/// \brief Deterministic pre-generated fault schedules.
///
/// Replaces the binary up/down timeline of engine/failure.h with a taxonomy
/// of faults the paper's §3.1 fault-tolerance remark motivates: crash/repair
/// (bit-compatible with the legacy generator), brownouts (partial capacity
/// loss), correlated group outages, and flap guards (minimum dwell times).
/// The whole schedule is a pure function of (config, num_servers, horizon,
/// failure RNG), generated before the first simulation event, so fault
/// behaviour is reproducible and diffable across policies.
///
/// Draw-order contract (load-bearing for the hexfloat goldens): phase 1
/// draws exactly the legacy generator's sequence — per server, alternating
/// Exp(1/MTBF) / Exp(1/MTTR) gaps until the horizon. Brownout and
/// correlated draws happen only when their sub-configs are enabled, and
/// only *after* all phase-1 draws, so a crash-only config consumes the
/// identical RNG prefix it always did. The topology-scoped phases (rack
/// outages, zone brownouts, rack partitions — FailureConfig::domains) draw
/// after all three legacy phases, each only when enabled, extending the
/// same contract.

#include <vector>

#include "vodsim/engine/config.h"
#include "vodsim/fault/transition.h"
#include "vodsim/util/rng.h"
#include "vodsim/util/units.h"

namespace vodsim {

/// Generates the full fault schedule up to \p horizon, sorted by
/// (time, server, kind). Empty when `config.enabled` is false. The domain
/// phases (rack outages, zone brownouts, rack partitions) scope their
/// episodes to \p topology's racks and zones. With a disabled topology
/// (`Topology(TopologyConfig{}, n)`: one rack, one zone) or no domain
/// sub-config enabled, no domain phase draws and the schedule is the
/// per-server one alone.
std::vector<FaultTransition> generate_fault_schedule(const FailureConfig& config,
                                                     const Topology& topology,
                                                     Seconds horizon, Rng& rng);

/// Sorts \p schedule into the canonical (time, server, kind) order used by
/// the engine. Scripted schedules go through this before execution.
void sort_fault_schedule(std::vector<FaultTransition>& schedule);

}  // namespace vodsim
