#pragma once

/// \file replication.h
/// \brief Dynamic replication: the resource-intensive alternative to DRM.
///
/// Paper §3.1: when every holder of a requested video is full, "more
/// resource intensive solutions perform dynamic replication of the
/// requested object on another server where resources can be made
/// available" (cf. Dan/Kienzle/Sitaram [9] and Chou/Golubchik/Lui [7]).
/// vodsim implements it as a comparator to DRM:
///
///   - a per-video rejection counter with a sliding window triggers
///     replication of persistently hot titles;
///   - the copy streams from an existing holder to a server that has the
///     storage and does not yet hold the title, consuming a configurable
///     amount of link bandwidth on BOTH ends for size/rate seconds (this is
///     the "resource intensive" part — replication competes with viewers);
///   - on completion the replica directory gains a holder and future
///     arrivals can be admitted there.
///
/// The decision logic lives here (pure, unit-testable); the engine owns the
/// clock and executes the transfers.

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "vodsim/admission/controller.h"
#include "vodsim/cluster/server.h"
#include "vodsim/cluster/topology.h"
#include "vodsim/cluster/video.h"
#include "vodsim/util/units.h"

namespace vodsim {

struct ReplicationConfig {
  bool enabled = false;

  /// A video is replicated after this many rejections inside `window`.
  int rejection_threshold = 3;

  /// Sliding window for the rejection counter.
  Seconds window = 600.0;

  /// Link bandwidth consumed on the source AND destination server while the
  /// copy is in flight. Higher = faster copies but more viewer impact.
  Mbps transfer_bandwidth = 30.0;

  /// Cluster-wide cap on in-flight copies.
  int max_concurrent = 2;

  /// Optional cap on total replicas created during a run (-1 = unlimited).
  int max_total = -1;

  /// When no on-line holder has the slack to source the copy (the common
  /// case — a title is being replicated precisely because its holders are
  /// saturated), stream it from the cluster's tertiary storage instead
  /// (paper §2: the architecture includes tertiary storage holding the full
  /// catalog). A tertiary-sourced copy consumes link bandwidth only at the
  /// destination.
  bool allow_tertiary_source = true;
};

/// A planned copy of `video` from `source` to `destination`.
/// source == kNoServer means the copy streams from tertiary storage.
struct ReplicationJob {
  VideoId video = -1;
  ServerId source = kNoServer;
  ServerId destination = kNoServer;
  Seconds transfer_time = 0.0;

  bool from_tertiary() const { return source == kNoServer; }
};

/// Tracks rejection history and decides when/where to replicate.
class ReplicationManager {
 public:
  explicit ReplicationManager(ReplicationConfig config);

  const ReplicationConfig& config() const { return config_; }

  /// Makes destination selection failure-domain aware: among candidates,
  /// prefer servers in zones (then racks) holding the fewest existing
  /// copies of the title, so repair re-replication rebuilds spread rather
  /// than piling copies back into the surviving half of a damaged rack.
  /// With a null or disabled topology the legacy best-slack rule applies
  /// unchanged (bit-identical selection). Non-owning; must outlive this.
  void set_topology(const Topology* topology) { topology_ = topology; }

  /// Records a rejection of \p video at time \p now and, if the trigger
  /// fires and resources exist, returns the job to start. The caller must
  /// then invoke on_job_started() (reserving link bandwidth itself).
  ///
  /// Source selection: the holder with the most bandwidth slack (the copy
  /// steals the least from viewers). Destination: the non-holder with
  /// enough free storage, preferring the most bandwidth slack.
  std::optional<ReplicationJob> on_rejection(
      VideoId video, Seconds now, const VideoCatalog& catalog,
      const std::vector<Server>& servers, const ReplicaDirectory& directory);

  /// Plans a repair copy of \p video — a long-down server's title the fault
  /// subsystem found with no available holder. Bypasses the rejection
  /// trigger and the `enabled` flag (repair is driven by the failure
  /// config), but honors the concurrency/total caps and the per-title
  /// in-flight dedup. Source selection works like on_rejection; with no
  /// available holder the copy necessarily streams from tertiary storage,
  /// so allow_tertiary_source=false makes repair a no-op.
  std::optional<ReplicationJob> plan_repair(VideoId video,
                                            const VideoCatalog& catalog,
                                            const std::vector<Server>& servers,
                                            const ReplicaDirectory& directory);

  /// Bookkeeping for the concurrency cap and the per-title in-flight set.
  void on_job_started();
  void on_job_finished(VideoId video);

  int in_flight() const { return in_flight_; }
  int total_started() const { return total_started_; }

 private:
  /// Drops window-expired rejections and returns the live count for video.
  int prune_and_count(VideoId video, Seconds now);

  /// Shared cap/dedup checks + source/destination selection; marks the
  /// title in-flight when a job is planned.
  std::optional<ReplicationJob> plan_copy(VideoId video,
                                          const VideoCatalog& catalog,
                                          const std::vector<Server>& servers,
                                          const ReplicaDirectory& directory);

  ReplicationConfig config_;
  const Topology* topology_ = nullptr;
  struct Rejection {
    Seconds time;
    VideoId video;
  };
  std::deque<Rejection> recent_;
  /// Videos already being copied (suppress duplicate jobs).
  std::vector<VideoId> copying_;
  int in_flight_ = 0;
  int total_started_ = 0;
};

}  // namespace vodsim
