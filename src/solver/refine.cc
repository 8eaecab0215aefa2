#include "solver/refine.h"

#include <algorithm>
#include <limits>

#include "common/thread_pool.h"
#include "solver/enclosing_ball.h"

namespace ukc {
namespace solver {

namespace {

// Partitions sites by nearest center; returns cluster membership lists
// aligned with `centers`. The per-site nearest-center scans shard over
// the pool into a label array; the membership lists are then built
// serially in site order, so the clusters are thread-count independent.
std::vector<std::vector<metric::SiteId>> AssignClusters(
    const metric::MetricSpace& space, const std::vector<metric::SiteId>& sites,
    const std::vector<metric::SiteId>& centers, ThreadPool& pool) {
  std::vector<size_t> label(sites.size(), 0);
  pool.ParallelFor(sites.size(), [&](int, size_t s) {
    size_t best = 0;
    double best_distance = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < centers.size(); ++c) {
      const double d = space.Distance(sites[s], centers[c]);
      if (d < best_distance) {
        best_distance = d;
        best = c;
      }
    }
    label[s] = best;
  });
  std::vector<std::vector<metric::SiteId>> clusters(centers.size());
  for (size_t s = 0; s < sites.size(); ++s) {
    clusters[label[s]].push_back(sites[s]);
  }
  return clusters;
}

// The site of `cluster` minimizing the max distance to the cluster (the
// discrete 1-center). Used in general metric spaces.
metric::SiteId DiscreteOneCenter(const metric::MetricSpace& space,
                                 const std::vector<metric::SiteId>& cluster) {
  metric::SiteId best = cluster[0];
  double best_radius = std::numeric_limits<double>::infinity();
  for (metric::SiteId candidate : cluster) {
    double radius = 0.0;
    for (metric::SiteId s : cluster) {
      radius = std::max(radius, space.Distance(candidate, s));
      if (radius >= best_radius) break;
    }
    if (radius < best_radius) {
      best_radius = radius;
      best = candidate;
    }
  }
  return best;
}

}  // namespace

Result<KCenterSolution> RefineKCenter(metric::MetricSpace* space,
                                      const std::vector<metric::SiteId>& sites,
                                      const KCenterSolution& seed,
                                      const RefineOptions& options) {
  if (space == nullptr) {
    return Status::InvalidArgument("RefineKCenter: null space");
  }
  if (seed.centers.empty()) {
    return Status::InvalidArgument("RefineKCenter: seed has no centers");
  }
  if (sites.empty()) {
    return Status::InvalidArgument("RefineKCenter: no sites");
  }
  auto* euclidean = dynamic_cast<metric::EuclideanSpace*>(space);
  Rng rng(options.seed);
  ScopedPool pool(options.pool, 1);

  KCenterSolution best = seed;
  best.radius = CoveringRadius(*space, sites, best.centers);
  best.algorithm = seed.algorithm + "+refine";

  // Stop when a round improves the radius by less than this relative
  // amount.
  constexpr double kMinRelativeImprovement = 1e-9;
  constexpr size_t kMaxRounds = 50;
  std::vector<metric::SiteId> centers = best.centers;
  for (size_t round = 0; round < kMaxRounds; ++round) {
    const auto clusters = AssignClusters(*space, sites, centers, *pool);

    // Recenter every non-empty cluster in parallel. The computation is
    // pure (Welzl balls / discrete 1-centers); Euclidean centers are
    // minted into the space serially afterwards, in cluster order, so
    // site ids are deterministic. Each cluster's Welzl shuffle uses an
    // rng forked by (round, cluster), not a shared sequential stream.
    const size_t num_clusters = clusters.size();
    std::vector<Ball> balls(euclidean != nullptr ? num_clusters : 0);
    std::vector<metric::SiteId> discrete(euclidean == nullptr ? num_clusters
                                                              : 0);
    std::vector<Status> statuses(num_clusters);
    Rng round_rng = rng.Fork(round);
    std::vector<Rng> cluster_rngs;
    cluster_rngs.reserve(num_clusters);
    for (size_t c = 0; c < num_clusters; ++c) {
      cluster_rngs.push_back(round_rng.Fork(c));
    }
    pool->ParallelFor(num_clusters, [&](int, size_t c) {
      if (clusters[c].empty()) return;
      if (euclidean != nullptr) {
        std::vector<geometry::Point> members;
        members.reserve(clusters[c].size());
        for (metric::SiteId s : clusters[c]) {
          members.push_back(euclidean->point(s));
        }
        auto ball = WelzlMinBall(members, cluster_rngs[c]);
        if (!ball.ok()) {
          statuses[c] = ball.status();
          return;
        }
        balls[c] = std::move(ball).value();
      } else {
        discrete[c] = DiscreteOneCenter(*space, clusters[c]);
      }
    });
    for (Status& status : statuses) {
      if (!status.ok()) return std::move(status);
    }

    std::vector<metric::SiteId> next;
    next.reserve(centers.size());
    for (size_t c = 0; c < num_clusters; ++c) {
      if (clusters[c].empty()) {
        next.push_back(centers[c]);  // Keep an idle center in place.
      } else if (euclidean != nullptr) {
        next.push_back(euclidean->AddPoint(balls[c].center));
      } else {
        next.push_back(discrete[c]);
      }
    }
    const double radius = CoveringRadius(*space, sites, next);
    const double improvement = best.radius - radius;
    if (radius < best.radius) {
      best.radius = radius;
      best.centers = next;
    }
    if (improvement < kMinRelativeImprovement * best.radius) break;
    centers = next;
  }
  return best;
}

}  // namespace solver
}  // namespace ukc
