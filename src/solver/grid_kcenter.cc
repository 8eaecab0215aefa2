#include "solver/grid_kcenter.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_set>

#include "common/strings.h"
#include "metric/euclidean_space.h"
#include "solver/gonzalez.h"

namespace ukc {
namespace solver {

using geometry::Point;

namespace {

// Bit-set helpers over vector<uint64_t>.
inline void SetBit(std::vector<uint64_t>* bits, size_t i) {
  (*bits)[i / 64] |= uint64_t{1} << (i % 64);
}
inline bool AllSet(const std::vector<uint64_t>& bits, size_t n) {
  for (size_t w = 0; w < bits.size(); ++w) {
    uint64_t expected = ~uint64_t{0};
    if ((w + 1) * 64 > n) {
      const size_t tail = n - w * 64;
      expected = tail == 64 ? ~uint64_t{0} : ((uint64_t{1} << tail) - 1);
    }
    if ((bits[w] & expected) != expected) return false;
  }
  return true;
}
inline bool TestBit(const std::vector<uint64_t>& bits, size_t i) {
  return (bits[i / 64] >> (i % 64)) & 1;
}

// One decision instance: candidate generation + bounded cover search.
class Decision {
 public:
  Decision(const std::vector<Point>& points, size_t k)
      : points_(points), k_(k) {}

  // Tries radius r with internal slack eps_prime; on success fills
  // `centers` with k (or fewer) candidate points of covering radius
  // <= r * (1 + eps_prime).
  Result<bool> Try(double r, double eps_prime, std::vector<Point>* centers) {
    const size_t dim = points_[0].dim();
    const double cell = eps_prime * r / std::sqrt(static_cast<double>(dim));
    const double reach = r * (1.0 + eps_prime / 2.0);  // Candidate radius.
    const double cover = r * (1.0 + eps_prime);        // Coverage radius.

    // Generate candidates: grid points within `reach` of any input
    // point, deduplicated by cell id.
    constexpr size_t kMaxCandidates = 200'000;
    std::unordered_set<std::string> seen;
    std::vector<Point> candidates;
    std::vector<int64_t> lo(dim), hi(dim);
    for (const Point& p : points_) {
      for (size_t a = 0; a < dim; ++a) {
        lo[a] = static_cast<int64_t>(std::floor((p[a] - reach) / cell));
        hi[a] = static_cast<int64_t>(std::ceil((p[a] + reach) / cell));
      }
      std::vector<int64_t> index(lo);
      while (true) {
        Point g(dim);
        for (size_t a = 0; a < dim; ++a) {
          g[a] = static_cast<double>(index[a]) * cell;
        }
        if (geometry::Distance(g, p) <= reach) {
          std::string key;
          key.reserve(dim * 9);
          for (size_t a = 0; a < dim; ++a) {
            key.append(reinterpret_cast<const char*>(&index[a]),
                       sizeof(int64_t));
          }
          if (seen.insert(std::move(key)).second) {
            candidates.push_back(std::move(g));
            if (candidates.size() > kMaxCandidates) {
              return Status::InvalidArgument(
                  StrFormat("GridKCenter: more than %zu candidates at r=%g; "
                            "increase eps or use another solver",
                            kMaxCandidates, r));
            }
          }
        }
        // Odometer over the cell box.
        size_t a = 0;
        for (; a < dim; ++a) {
          if (++index[a] <= hi[a]) break;
          index[a] = lo[a];
        }
        if (a == dim) break;
      }
    }

    // coverage[c]: bitmask of points candidate c covers at `cover`.
    const size_t words = (points_.size() + 63) / 64;
    std::vector<std::vector<uint64_t>> coverage(
        candidates.size(), std::vector<uint64_t>(words, 0));
    for (size_t c = 0; c < candidates.size(); ++c) {
      for (size_t i = 0; i < points_.size(); ++i) {
        if (geometry::Distance(candidates[c], points_[i]) <= cover) {
          SetBit(&coverage[c], i);
        }
      }
    }
    // Candidates with identical coverage are interchangeable: keep one
    // representative per mask. This collapses the branching factor from
    // "grid points per ball" to "distinct coverage patterns".
    {
      std::unordered_set<std::string> masks;
      std::vector<Point> unique_candidates;
      std::vector<std::vector<uint64_t>> unique_coverage;
      for (size_t c = 0; c < candidates.size(); ++c) {
        std::string key(reinterpret_cast<const char*>(coverage[c].data()),
                        words * sizeof(uint64_t));
        if (masks.insert(std::move(key)).second) {
          unique_candidates.push_back(std::move(candidates[c]));
          unique_coverage.push_back(std::move(coverage[c]));
        }
      }
      candidates = std::move(unique_candidates);
      coverage = std::move(unique_coverage);
    }
    // coverers[i]: candidates that can cover point i.
    std::vector<std::vector<uint32_t>> coverers(points_.size());
    for (size_t c = 0; c < candidates.size(); ++c) {
      for (size_t i = 0; i < points_.size(); ++i) {
        if (TestBit(coverage[c], i)) {
          coverers[i].push_back(static_cast<uint32_t>(c));
        }
      }
    }
    for (const auto& list : coverers) {
      if (list.empty()) return false;  // Some point is uncoverable.
    }

    // Branch and bound: always branch on the uncovered point with the
    // fewest coverers.
    nodes_ = 0;
    chosen_.clear();
    visited_.clear();
    std::vector<uint64_t> covered(words, 0);
    UKC_ASSIGN_OR_RETURN(const bool found,
                         Search(candidates, coverage, coverers, covered, 0));
    if (!found) return false;
    centers->clear();
    for (uint32_t c : chosen_) centers->push_back(candidates[c]);
    return true;
  }

 private:
  Result<bool> Search(const std::vector<Point>& candidates,
                      const std::vector<std::vector<uint64_t>>& coverage,
                      const std::vector<std::vector<uint32_t>>& coverers,
                      const std::vector<uint64_t>& covered, size_t depth) {
    constexpr uint64_t kMaxNodes = 5'000'000;
    if (++nodes_ > kMaxNodes) {
      return Status::InvalidArgument(
          "GridKCenter: branch-and-bound node cap exceeded; increase eps or "
          "reduce k");
    }
    if (AllSet(covered, points_.size())) return true;
    if (depth == k_) return false;

    // Memoize failed states: the same covered-set at the same depth
    // always fails the same way.
    std::string state(reinterpret_cast<const char*>(covered.data()),
                      covered.size() * sizeof(uint64_t));
    state.push_back(static_cast<char>(depth));
    if (!visited_.insert(state).second) return false;

    // Most-constrained uncovered point.
    size_t pick = points_.size();
    size_t fewest = std::numeric_limits<size_t>::max();
    for (size_t i = 0; i < points_.size(); ++i) {
      if (TestBit(covered, i)) continue;
      if (coverers[i].size() < fewest) {
        fewest = coverers[i].size();
        pick = i;
      }
    }
    UKC_CHECK_LT(pick, points_.size());

    // Only maximal residual coverers matter: if candidate a's uncovered
    // gain is a subset of candidate b's, trying b first subsumes a.
    struct Option {
      uint32_t candidate;
      std::vector<uint64_t> next;  // covered | coverage[candidate].
      int gain;                    // popcount of the residual.
    };
    std::vector<Option> options_list;
    options_list.reserve(coverers[pick].size());
    for (uint32_t c : coverers[pick]) {
      Option option;
      option.candidate = c;
      option.next.resize(covered.size());
      option.gain = 0;
      for (size_t w = 0; w < covered.size(); ++w) {
        option.next[w] = covered[w] | coverage[c][w];
        option.gain += __builtin_popcountll(coverage[c][w] & ~covered[w]);
      }
      options_list.push_back(std::move(option));
    }
    std::sort(options_list.begin(), options_list.end(),
              [](const Option& a, const Option& b) { return a.gain > b.gain; });
    std::vector<const Option*> maximal;
    for (const Option& option : options_list) {
      bool dominated = false;
      for (const Option* kept : maximal) {
        // option.next subset of kept->next?
        bool subset = true;
        for (size_t w = 0; w < covered.size() && subset; ++w) {
          subset = (option.next[w] | kept->next[w]) == kept->next[w];
        }
        if (subset) {
          dominated = true;
          break;
        }
      }
      if (!dominated) maximal.push_back(&option);
    }

    for (const Option* option : maximal) {
      chosen_.push_back(option->candidate);
      UKC_ASSIGN_OR_RETURN(const bool found,
                           Search(candidates, coverage, coverers, option->next,
                                  depth + 1));
      if (found) return true;
      chosen_.pop_back();
    }
    return false;
  }

  const std::vector<Point>& points_;
  const size_t k_;
  uint64_t nodes_ = 0;
  std::vector<uint32_t> chosen_;
  std::unordered_set<std::string> visited_;
};

}  // namespace

Result<ContinuousKCenterSolution> GridKCenter(const std::vector<Point>& points,
                                              size_t k,
                                              const GridKCenterOptions& options) {
  if (points.empty()) {
    return Status::InvalidArgument("GridKCenter: no points");
  }
  if (k == 0) return Status::InvalidArgument("GridKCenter: k must be >= 1");
  if (!(options.eps > 0.0) || options.eps > 1.0) {
    return Status::InvalidArgument("GridKCenter: eps must be in (0, 1]");
  }
  const size_t dim = points[0].dim();
  for (const Point& p : points) {
    if (p.dim() != dim) {
      return Status::InvalidArgument("GridKCenter: mixed dimensions");
    }
  }

  // Gonzalez bracket: opt in [r_g / 2, r_g].
  metric::EuclideanSpace space(dim, points);
  std::vector<metric::SiteId> sites(points.size());
  for (size_t i = 0; i < sites.size(); ++i) {
    sites[i] = static_cast<metric::SiteId>(i);
  }
  UKC_ASSIGN_OR_RETURN(KCenterSolution greedy, Gonzalez(space, sites, k));
  ContinuousKCenterSolution solution;
  if (greedy.radius <= 0.0) {
    // k >= #distinct points: the greedy centers are exact.
    for (metric::SiteId c : greedy.centers) {
      solution.centers.push_back(space.point(c));
    }
    solution.radius = 0.0;
    solution.cluster_of.resize(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < solution.centers.size(); ++c) {
        const double d = geometry::Distance(points[i], solution.centers[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      solution.cluster_of[i] = best;
    }
    return solution;
  }

  // Internal parameters chosen so the end-to-end factor is 1 + eps:
  // (1 + eps') * (1 + 2 delta) <= 1 + eps with eps' = eps/2 and
  // delta = eps/8 (using r_g <= 2 opt).
  const double eps_prime = options.eps / 2.0;
  const double delta = options.eps / 8.0;

  Decision decision(points, k);
  double lo = greedy.radius / 2.0;
  double hi = greedy.radius;
  std::vector<Point> best_centers;
  UKC_ASSIGN_OR_RETURN(const bool top_feasible,
                       decision.Try(hi, eps_prime, &best_centers));
  if (!top_feasible) {
    return Status::Internal("GridKCenter: Gonzalez radius infeasible");
  }
  while (hi - lo > delta * greedy.radius) {
    const double mid = (lo + hi) / 2.0;
    std::vector<Point> centers;
    UKC_ASSIGN_OR_RETURN(const bool feasible,
                         decision.Try(mid, eps_prime, &centers));
    if (feasible) {
      hi = mid;
      best_centers = std::move(centers);
    } else {
      lo = mid;
    }
  }

  solution.centers = std::move(best_centers);
  solution.cluster_of.resize(points.size());
  solution.radius = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < solution.centers.size(); ++c) {
      const double d = geometry::Distance(points[i], solution.centers[c]);
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    }
    solution.cluster_of[i] = best;
    solution.radius = std::max(solution.radius, best_d);
  }
  return solution;
}

}  // namespace solver
}  // namespace ukc
