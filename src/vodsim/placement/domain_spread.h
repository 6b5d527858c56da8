#pragma once

/// \file domain_spread.h
/// \brief Failure-domain anti-affinity placement.
///
/// Even allocation's copy counts (same storage budget, popularity-oblivious)
/// but with a topology-aware installer: each copy of a video goes to the
/// candidate server whose zone — then rack — holds the fewest copies of that
/// video so far, so a whole-rack outage or partition can never take out
/// every replica of a title that had copies to spread. With a trivial
/// topology (1 rack, 1 zone) the domain keys tie everywhere and the
/// installer degrades to least-loaded random placement.

#include "vodsim/cluster/topology.h"
#include "vodsim/placement/placement.h"

namespace vodsim {

class DomainSpreadPlacement final : public PlacementPolicy {
 public:
  /// \param topology the failure-domain tree to spread across (copied; a
  /// trivial tree makes this an even-like policy).
  explicit DomainSpreadPlacement(Topology topology)
      : topology_(std::move(topology)) {}

  /// Throws std::invalid_argument unless the topology covers exactly
  /// \p servers (make_placement's default tree covers none).
  PlacementResult place(const VideoCatalog& catalog,
                        const std::vector<double>& popularity, double avg_copies,
                        std::vector<Server>& servers, Rng& rng) const override;

  std::string name() const override { return "domain_spread"; }

  const Topology& topology() const { return topology_; }

 private:
  Topology topology_;
};

}  // namespace vodsim
