#include "solver/brute_force.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/strings.h"

namespace ukc {
namespace solver {

uint64_t BinomialCount(uint64_t m, uint64_t k) {
  if (k > m) return 0;
  k = std::min(k, m - k);
  uint64_t result = 1;
  for (uint64_t i = 1; i <= k; ++i) {
    const uint64_t numerator = m - k + i;
    // result * numerator may overflow; saturate.
    if (result > std::numeric_limits<uint64_t>::max() / numerator) {
      return std::numeric_limits<uint64_t>::max();
    }
    result = result * numerator / i;
  }
  return result;
}

void CombinationFromRank(uint64_t rank, uint64_t m, uint64_t k,
                         std::vector<size_t>* out) {
  UKC_CHECK(out != nullptr);
  UKC_CHECK(k >= 1 && k <= m);
  UKC_CHECK_LT(rank, BinomialCount(m, k));
  out->resize(k);
  // Position i takes the smallest value a (above the previous position)
  // whose block of C(m-1-a, k-1-i) completions still contains `rank`.
  uint64_t a = 0;
  for (uint64_t i = 0; i < k; ++i) {
    while (true) {
      const uint64_t block = BinomialCount(m - 1 - a, k - 1 - i);
      if (rank < block) break;
      rank -= block;
      ++a;
    }
    (*out)[i] = static_cast<size_t>(a);
    ++a;
  }
}

bool NextCombination(std::vector<size_t>* index, size_t m) {
  std::vector<size_t>& idx = *index;
  const size_t k = idx.size();
  size_t i = k;
  while (i-- > 0) {
    if (idx[i] + (k - i) < m) {
      ++idx[i];
      for (size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
      return true;
    }
  }
  return false;
}

namespace {

// Depth-first enumeration of k-subsets of candidates with pruning: a
// prefix is abandoned once even the *best possible* completion cannot
// beat the incumbent. For pruning we track, per site, the distance to
// the nearest already-chosen center; sites whose distance to every
// remaining candidate exceeds the incumbent make the prefix hopeless.
class SubsetSearch {
 public:
  SubsetSearch(const metric::MetricSpace& space,
               const std::vector<metric::SiteId>& sites,
               const std::vector<metric::SiteId>& candidates, size_t k)
      : space_(space), sites_(sites), candidates_(candidates), k_(k) {
    // Precompute the site-candidate distance matrix once: the search
    // probes it heavily.
    distance_.resize(sites.size());
    for (size_t s = 0; s < sites.size(); ++s) {
      distance_[s].resize(candidates.size());
      for (size_t c = 0; c < candidates.size(); ++c) {
        distance_[s][c] = space.Distance(sites[s], candidates[c]);
      }
    }
    // A site's distance to its nearest candidate lower-bounds every
    // completion, so the max over sites lower-bounds the optimum.
    floor_ = 0.0;
    for (size_t s = 0; s < sites.size(); ++s) {
      double nearest = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < candidates.size(); ++c) {
        nearest = std::min(nearest, distance_[s][c]);
      }
      floor_ = std::max(floor_, nearest);
    }
  }

  KCenterSolution Run() {
    best_radius_ = std::numeric_limits<double>::infinity();
    std::vector<size_t> chosen;
    std::vector<double> nearest(sites_.size(),
                                std::numeric_limits<double>::infinity());
    Recurse(0, &chosen, nearest);
    KCenterSolution solution;
    solution.algorithm = "exact-discrete";
    solution.approx_factor = 1.0;
    solution.radius = best_radius_;
    solution.centers.reserve(best_.size());
    for (size_t c : best_) solution.centers.push_back(candidates_[c]);
    return solution;
  }

 private:
  void Recurse(size_t first, std::vector<size_t>* chosen,
               const std::vector<double>& nearest) {
    if (chosen->size() == k_) {
      double radius = 0.0;
      for (double d : nearest) radius = std::max(radius, d);
      if (radius < best_radius_) {
        best_radius_ = radius;
        best_ = *chosen;
      }
      return;
    }
    const size_t remaining = k_ - chosen->size();
    // c + remaining <= |candidates| keeps enough candidates to finish.
    for (size_t c = first; c + remaining <= candidates_.size(); ++c) {
      // Relax distances with candidate c.
      std::vector<double> relaxed(nearest);
      for (size_t s = 0; s < sites_.size(); ++s) {
        relaxed[s] = std::min(relaxed[s], distance_[s][c]);
      }
      // Prune: a site that neither the chosen centers nor any remaining
      // candidate can bring under the incumbent dooms this branch.
      bool hopeless = false;
      for (size_t s = 0; s < sites_.size() && !hopeless; ++s) {
        if (relaxed[s] < best_radius_) continue;
        bool rescuable = false;
        for (size_t c2 = c + 1; c2 < candidates_.size() && remaining > 1; ++c2) {
          if (distance_[s][c2] < best_radius_) {
            rescuable = true;
            break;
          }
        }
        hopeless = !rescuable;
      }
      if (hopeless) continue;
      chosen->push_back(c);
      Recurse(c + 1, chosen, relaxed);
      chosen->pop_back();
      // Early exit at the information-theoretic floor.
      if (best_radius_ <= floor_) return;
    }
  }

  const metric::MetricSpace& space_;
  const std::vector<metric::SiteId>& sites_;
  const std::vector<metric::SiteId>& candidates_;
  const size_t k_;
  std::vector<std::vector<double>> distance_;
  double floor_ = 0.0;
  double best_radius_ = 0.0;
  std::vector<size_t> best_;
};

}  // namespace

Result<KCenterSolution> ExactDiscreteKCenter(
    const metric::MetricSpace& space, const std::vector<metric::SiteId>& sites,
    const std::vector<metric::SiteId>& candidates, size_t k) {
  if (k == 0) {
    return Status::InvalidArgument("ExactDiscreteKCenter: k must be >= 1");
  }
  if (sites.empty() || candidates.empty()) {
    return Status::InvalidArgument(
        "ExactDiscreteKCenter: sites and candidates must be non-empty");
  }
  if (k > candidates.size()) {
    // Choosing all candidates is optimal; no enumeration needed.
    KCenterSolution solution;
    solution.algorithm = "exact-discrete";
    solution.approx_factor = 1.0;
    solution.centers = candidates;
    solution.radius = CoveringRadius(space, sites, candidates);
    return solution;
  }
  constexpr uint64_t kMaxSubsets = 20'000'000;
  const uint64_t subsets = BinomialCount(candidates.size(), k);
  if (subsets > kMaxSubsets) {
    return Status::InvalidArgument(
        StrFormat("ExactDiscreteKCenter: C(%zu,%zu)=%llu subsets exceeds the "
                  "limit %llu",
                  candidates.size(), k,
                  static_cast<unsigned long long>(subsets),
                  static_cast<unsigned long long>(kMaxSubsets)));
  }
  SubsetSearch search(space, sites, candidates, k);
  return search.Run();
}

}  // namespace solver
}  // namespace ukc
