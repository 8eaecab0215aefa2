// Streaming statistics accumulators used by the Monte-Carlo cost
// estimator and the experiment harness.

#ifndef UKC_COMMON_STATS_H_
#define UKC_COMMON_STATS_H_

#include <cstdint>
#include <limits>

namespace ukc {

/// Welford online accumulator: numerically stable mean and variance,
/// plus min/max, in O(1) memory.
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Number of observations.
  int64_t count() const { return count_; }

  /// Sample mean (0 when empty).
  double Mean() const { return count_ == 0 ? 0.0 : mean_; }

  /// Unbiased sample variance (0 when fewer than two observations).
  double Variance() const;

  /// Sample standard deviation.
  double StdDev() const;

  /// Standard error of the mean.
  double StdError() const;

  /// Smallest / largest observation (+inf / -inf when empty).
  double Min() const { return min_; }
  double Max() const { return max_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Kahan compensated summation, for the exact expected-cost sweep where
/// many small probability increments accumulate.
class KahanSum {
 public:
  /// Adds a term.
  void Add(double x);

  /// The compensated total.
  double Total() const { return sum_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

}  // namespace ukc

#endif  // UKC_COMMON_STATS_H_
