#include "vodsim/placement/domain_spread.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace vodsim {

PlacementResult DomainSpreadPlacement::place(
    const VideoCatalog& catalog, const std::vector<double>& /*popularity*/,
    double avg_copies, std::vector<Server>& servers, Rng& rng) const {
  // The installer indexes the tree by server id; a tree built for another
  // cluster size (make_placement's default-constructed one has no servers)
  // would read out of range.
  if (static_cast<std::size_t>(topology_.num_servers()) != servers.size()) {
    throw std::invalid_argument(
        "domain_spread placement: topology has " +
        std::to_string(topology_.num_servers()) + " servers, cluster has " +
        std::to_string(servers.size()));
  }
  const std::size_t n = catalog.size();
  // Copy counts are Even's, draw for draw (same budget, same surplus
  // shuffle), so even-vs-domain_spread comparisons hold replication degree
  // fixed and differ only in where the copies land.
  const int budget = placement_detail::copy_budget(n, avg_copies);
  const int base = budget / static_cast<int>(n);
  const int surplus = budget - base * static_cast<int>(n);

  std::vector<int> copies(n, base);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  for (int i = 0; i < surplus; ++i) {
    ++copies[order[static_cast<std::size_t>(i) % n]];
  }

  // Anti-affinity installer. Most-copies-first like install_replicas, so
  // heavily replicated titles still find distinct servers with space.
  PlacementResult result;
  result.copies.assign(n, 0);
  std::vector<std::size_t> video_order(n);
  std::iota(video_order.begin(), video_order.end(), 0);
  std::sort(video_order.begin(), video_order.end(),
            [&](std::size_t a, std::size_t b) { return copies[a] > copies[b]; });

  std::vector<std::size_t> server_order(servers.size());
  std::iota(server_order.begin(), server_order.end(), 0);
  std::vector<int> rack_copies(static_cast<std::size_t>(topology_.racks()));
  std::vector<int> zone_copies(static_cast<std::size_t>(topology_.zones()));

  for (std::size_t v : video_order) {
    const Video& video = catalog[static_cast<VideoId>(v)];
    const int wanted = std::min<int>(copies[v], static_cast<int>(servers.size()));
    // Shuffled candidate order randomizes every remaining tie (same-domain,
    // same-load candidates), like install_replicas' random server choice.
    rng.shuffle(server_order);
    std::fill(rack_copies.begin(), rack_copies.end(), 0);
    std::fill(zone_copies.begin(), zone_copies.end(), 0);

    int placed = 0;
    while (placed < wanted) {
      std::size_t best = servers.size();
      int best_zone = 0;
      int best_rack = 0;
      std::size_t best_load = 0;
      for (std::size_t s : server_order) {
        const Server& candidate = servers[s];
        if (candidate.holds(video.id)) continue;
        if (candidate.storage_free() + 1e-9 < video.size()) continue;
        const auto id = static_cast<ServerId>(candidate.id());
        const int zc = zone_copies[static_cast<std::size_t>(topology_.zone_of(id))];
        const int rc = rack_copies[static_cast<std::size_t>(topology_.rack_of(id))];
        const std::size_t load = candidate.replicas().size();
        const bool better =
            best == servers.size() ||
            (zc != best_zone ? zc < best_zone
                             : rc != best_rack ? rc < best_rack
                                               : load < best_load);
        if (better) {
          best = s;
          best_zone = zc;
          best_rack = rc;
          best_load = load;
        }
      }
      if (best == servers.size()) break;  // storage exhausted for this title
      if (!servers[best].add_replica(video)) break;
      const auto id = static_cast<ServerId>(servers[best].id());
      ++zone_copies[static_cast<std::size_t>(topology_.zone_of(id))];
      ++rack_copies[static_cast<std::size_t>(topology_.rack_of(id))];
      ++placed;
    }
    result.copies[v] = placed;
    result.placed_total += placed;
    result.shortfall += copies[v] - placed;
  }
  return result;
}

}  // namespace vodsim
