#include "solver/kmedian_local_search.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/thread_pool.h"
#include "solver/brute_force.h"

namespace ukc {
namespace solver {

namespace {

Status ValidateCostMatrix(const std::vector<std::vector<double>>& cost,
                          size_t k) {
  if (cost.empty() || cost[0].empty()) {
    return Status::InvalidArgument("KMedian: empty cost matrix");
  }
  const size_t m = cost[0].size();
  for (size_t i = 0; i < cost.size(); ++i) {
    if (cost[i].size() != m) {
      return Status::InvalidArgument("KMedian: ragged cost matrix");
    }
    for (double value : cost[i]) {
      if (!(value >= 0.0) || std::isinf(value)) {
        return Status::InvalidArgument(
            "KMedian: costs must be finite and non-negative");
      }
    }
  }
  if (k == 0 || k > m) {
    return Status::InvalidArgument("KMedian: need 1 <= k <= #facilities");
  }
  return Status::OK();
}

// Recomputes assignment and total for an open set.
void Reassign(const std::vector<std::vector<double>>& cost,
              const std::vector<size_t>& open, KMedianSolution* solution) {
  solution->assignment.resize(cost.size());
  solution->total_cost = 0.0;
  for (size_t i = 0; i < cost.size(); ++i) {
    size_t best = open[0];
    for (size_t f : open) {
      if (cost[i][f] < cost[i][best]) best = f;
    }
    solution->assignment[i] = best;
    solution->total_cost += cost[i][best];
  }
}

// Per-client nearest and second-nearest open facility, the incremental
// structure behind the swap scan: evaluating "open with `out` replaced
// by `in`" needs, per client, min(cost[i][in], nearest open facility
// other than `out`) — which is best1 unless out IS the client's best1,
// in which case it is best2. min over a set is exact in floating point,
// so the totals are bitwise identical to the direct rescan of all k
// open facilities, at O(n) per swap instead of O(n·k). Rebuilt in
// O(n·k) after every accepted swap (one swap is accepted per round, so
// the round cost drops from O(k·m·n·k) to O(k·m·n + n·k)).
struct NearestOpenTables {
  std::vector<size_t> best1;  // First argmin in open-vector order.
  std::vector<double> best1_value;
  std::vector<double> best2_value;  // Min over open minus best1.

  void Rebuild(const std::vector<std::vector<double>>& cost,
               const std::vector<size_t>& open) {
    const size_t n = cost.size();
    best1.resize(n);
    best1_value.resize(n);
    best2_value.resize(n);
    for (size_t i = 0; i < n; ++i) {
      size_t b1 = open[0];
      double v1 = cost[i][open[0]];
      double v2 = std::numeric_limits<double>::infinity();
      for (size_t j = 1; j < open.size(); ++j) {
        const double v = cost[i][open[j]];
        if (v < v1) {
          v2 = v1;
          v1 = v;
          b1 = open[j];
        } else {
          v2 = std::min(v2, v);
        }
      }
      best1[i] = b1;
      best1_value[i] = v1;
      best2_value[i] = v2;
    }
  }

  // Total cost of `open` with facility `out` replaced by `in`.
  double SwapCost(const std::vector<std::vector<double>>& cost, size_t out,
                  size_t in) const {
    double total = 0.0;
    for (size_t i = 0; i < cost.size(); ++i) {
      const double alternative = best1[i] == out ? best2_value[i] : best1_value[i];
      total += std::min(cost[i][in], alternative);
    }
    return total;
  }
};

}  // namespace

Result<KMedianSolution> KMedianLocalSearch(
    const std::vector<std::vector<double>>& cost, size_t k,
    const KMedianOptions& options) {
  UKC_RETURN_IF_ERROR(ValidateCostMatrix(cost, k));
  const size_t m = cost[0].size();
  ScopedPool pool(options.pool, 1);

  // Greedy start: repeatedly open the facility with the largest
  // marginal gain. Candidate totals are computed in parallel by
  // facility index; the argmin scans them in order afterwards, so the
  // greedy choice is thread-count independent.
  std::vector<size_t> open;
  std::vector<double> best_cost(cost.size(),
                                std::numeric_limits<double>::infinity());
  std::vector<bool> is_open(m, false);
  std::vector<double> totals(m);
  for (size_t round = 0; round < k; ++round) {
    pool->ParallelFor(m, [&](int, size_t f) {
      if (is_open[f]) return;
      double total = 0.0;
      for (size_t i = 0; i < cost.size(); ++i) {
        total += std::min(best_cost[i], cost[i][f]);
      }
      totals[f] = total;
    });
    size_t best_facility = m;
    double best_total = std::numeric_limits<double>::infinity();
    for (size_t f = 0; f < m; ++f) {
      if (is_open[f]) continue;
      if (totals[f] < best_total) {
        best_total = totals[f];
        best_facility = f;
      }
    }
    UKC_CHECK_LT(best_facility, m);
    open.push_back(best_facility);
    is_open[best_facility] = true;
    for (size_t i = 0; i < cost.size(); ++i) {
      best_cost[i] = std::min(best_cost[i], cost[i][best_facility]);
    }
  }

  KMedianSolution solution;
  Reassign(cost, open, &solution);

  // Best-improvement single swaps: each (closed facility, open slot)
  // pair's total is an independent task; the argmin is again an
  // ordered scan over the result matrix. The nearest/second-nearest
  // tables make each task O(n) instead of O(n·k) and are rebuilt once
  // per accepted swap — bitwise identical totals (see NearestOpenTables).
  std::vector<double> swap_totals(k * m);
  NearestOpenTables nearest;
  for (size_t swaps = 0; swaps < options.max_swaps; ++swaps) {
    nearest.Rebuild(cost, open);
    pool->ParallelFor(k * m, [&](int, size_t task) {
      const size_t oi = task / m;
      const size_t in = task % m;
      if (is_open[in]) return;
      swap_totals[task] = nearest.SwapCost(cost, open[oi], in);
    });
    double best_total = solution.total_cost;
    size_t best_out = m;
    size_t best_in = m;
    for (size_t oi = 0; oi < open.size(); ++oi) {
      for (size_t in = 0; in < m; ++in) {
        if (is_open[in]) continue;
        const double total = swap_totals[oi * m + in];
        if (total < best_total) {
          best_total = total;
          best_out = oi;
          best_in = in;
        }
      }
    }
    if (best_in == m ||
        solution.total_cost - best_total <
            options.min_relative_improvement * std::max(1.0, solution.total_cost)) {
      break;
    }
    is_open[open[best_out]] = false;
    is_open[best_in] = true;
    open[best_out] = best_in;
    Reassign(cost, open, &solution);
  }

  std::sort(open.begin(), open.end());
  solution.facilities = std::move(open);
  return solution;
}

Result<KMedianSolution> KMedianExact(const std::vector<std::vector<double>>& cost,
                                     size_t k, uint64_t max_subsets) {
  UKC_RETURN_IF_ERROR(ValidateCostMatrix(cost, k));
  const size_t m = cost[0].size();
  if (BinomialCount(m, k) > max_subsets) {
    return Status::InvalidArgument("KMedianExact: too many subsets");
  }
  std::vector<size_t> index(k);
  for (size_t i = 0; i < k; ++i) index[i] = i;
  KMedianSolution best;
  best.total_cost = std::numeric_limits<double>::infinity();
  std::vector<size_t> open(k);
  while (true) {
    for (size_t i = 0; i < k; ++i) open[i] = index[i];
    KMedianSolution candidate;
    Reassign(cost, open, &candidate);
    if (candidate.total_cost < best.total_cost) {
      candidate.facilities = open;
      best = std::move(candidate);
    }
    if (!NextCombination(&index, m)) break;
  }
  return best;
}

}  // namespace solver
}  // namespace ukc
