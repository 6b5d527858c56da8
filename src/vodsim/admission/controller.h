#pragma once

/// \file controller.h
/// \brief The distribution controller's admission decision (paper §2, §3).
///
/// On each arrival the controller either (a) assigns the request to a
/// replica-holding server with bandwidth headroom, (b) frees such a server
/// via dynamic request migration, or (c) rejects the request. The decision
/// is pure — the engine executes it — so it is unit-testable without the
/// event loop.

#include <vector>

#include "vodsim/admission/assignment.h"
#include "vodsim/admission/migration.h"
#include "vodsim/cluster/server.h"
#include "vodsim/cluster/video.h"
#include "vodsim/obs/trace.h"

namespace vodsim {

/// VideoId -> servers holding a replica. Built once after placement (the
/// replica set is static; the paper performs no dynamic replication).
class ReplicaDirectory {
 public:
  ReplicaDirectory() = default;
  ReplicaDirectory(std::size_t num_videos, const std::vector<Server>& servers);

  const std::vector<ServerId>& holders(VideoId video) const {
    return holders_[static_cast<std::size_t>(video)];
  }
  const std::vector<std::vector<ServerId>>& all() const { return holders_; }
  std::size_t num_videos() const { return holders_.size(); }

  /// Videos with no replica anywhere (placement shortfall).
  std::size_t orphan_count() const { return orphans_; }

  /// Registers a replica created after placement (dynamic replication).
  /// No-op if the holder is already registered.
  void add_holder(VideoId video, ServerId server);

 private:
  std::vector<std::vector<ServerId>> holders_;
  std::size_t orphans_ = 0;
};

struct AdmissionConfig {
  AssignmentKind assignment = AssignmentKind::kLeastLoaded;
  MigrationConfig migration;

  /// Buffer-aware admission (intermittent-transmission extension): a server
  /// is considered feasible when the streams that will actually need flow
  /// soon — those whose staged data covers less than `buffer_aware_horizon`
  /// seconds of playback — fit in the link, ignoring streams coasting on
  /// fat buffers. More aggressive than the paper's minimum-flow rule; may
  /// over-commit and cause continuity violations in a drain crunch (the
  /// engine counts them). Requires SchedulerKind::kIntermittent.
  bool buffer_aware = false;
  Seconds buffer_aware_horizon = 30.0;
};

/// The controller's verdict for one arrival.
struct AdmissionDecision {
  bool accepted = false;
  ServerId server = kNoServer;
  /// Migrations to execute (in order) before attaching the newcomer.
  std::vector<MigrationStep> migrations;

  bool used_migration() const { return !migrations.empty(); }
};

class AdmissionController {
 public:
  /// \param directory must outlive the controller.
  AdmissionController(AdmissionConfig config, const ReplicaDirectory& directory);

  /// Decides the fate of an arrival for \p video at \p view_bandwidth, at
  /// simulation time \p now (used only for trace attribution — the decision
  /// itself is time-invariant). Does not mutate any server; the engine
  /// applies the decision. Runs on every arrival, so its working buffers
  /// are reused across calls (the mutable scratch below) — a controller
  /// serves exactly one simulation and is not safe to share across threads.
  AdmissionDecision decide(Seconds now, VideoId video, Mbps view_bandwidth,
                           const std::vector<Server>& servers, Rng& rng) const;

  const AdmissionConfig& config() const { return config_; }

  /// Attaches a trace recorder (observe-only; null detaches). The
  /// controller emits migration-search telemetry under kTraceMigration.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// The admission feasibility predicate (Server::can_admit under the
  /// paper's minimum-flow rule; the near-term-need test when buffer-aware).
  bool feasible(const Server& server, Mbps view_bandwidth) const;

 private:
  AdmissionConfig config_;
  const ReplicaDirectory& directory_;
  TraceRecorder* trace_ = nullptr;
  /// Reused across decide() calls; after warmup the admission hot path
  /// performs no heap allocations.
  mutable std::vector<ServerId> candidates_scratch_;
  mutable MigrationSearchScratch search_scratch_;
};

}  // namespace vodsim
