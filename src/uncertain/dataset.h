// An uncertain k-center instance: a metric space plus n independent
// uncertain points over its sites.
//
// Storage is flat (SoA): every location of every point lives in two
// contiguous parallel arrays (flat_sites / flat_probabilities) with a
// CSR-style offsets array delimiting the points, so the event-fill and
// sampling hot loops stream straight through both arrays with no
// per-location indirection. UncertainPoint is the *build-time* boundary
// type only; point(i) hands out an UncertainPointView over the arrays.
//
// The points are fixed at Build: a dataset is never edited in place.
// Churn (appends, deletes, sliding windows) is handled a layer up, by
// the streaming coreset and the serving tenants.

#ifndef UKC_UNCERTAIN_DATASET_H_
#define UKC_UNCERTAIN_DATASET_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "metric/euclidean_space.h"
#include "metric/metric_space.h"
#include "uncertain/uncertain_point.h"

namespace ukc {
namespace uncertain {

/// Owns the metric space and the uncertain points. The space is held by
/// shared_ptr because algorithms mint new sites (expected points,
/// candidate centers) into Euclidean spaces; site ids are append-only so
/// existing ids stay valid.
class UncertainDataset {
 public:
  /// Validates that every referenced site exists in the space, then
  /// flattens the points into the parallel location arrays.
  static Result<UncertainDataset> Build(std::shared_ptr<metric::MetricSpace> space,
                                        std::vector<UncertainPoint> points);

  /// Number of uncertain points (the paper's n).
  size_t n() const { return offsets_.size() - 1; }

  /// The paper's z = max_i z_i.
  size_t max_locations() const { return max_locations_; }

  /// Total number of location records Σ_i z_i.
  size_t total_locations() const { return sites_.size(); }

  /// View of point i over the flat arrays. Cheap; returned by value.
  UncertainPointView point(size_t i) const {
    UKC_DCHECK_LT(i, n());
    return UncertainPointView(sites_.data() + offsets_[i],
                              probabilities_.data() + offsets_[i],
                              offsets_[i + 1] - offsets_[i]);
  }

  /// Number of locations of point i (z_i).
  size_t num_locations(size_t i) const {
    UKC_DCHECK_LT(i, n());
    return offsets_[i + 1] - offsets_[i];
  }

  /// The flat location arrays. Locations of point i occupy the index
  /// range [offsets()[i], offsets()[i+1]); offsets() has n()+1 entries.
  std::span<const metric::SiteId> flat_sites() const { return sites_; }
  std::span<const double> flat_probabilities() const { return probabilities_; }
  std::span<const size_t> offsets() const { return offsets_; }

  const metric::MetricSpace& space() const { return *space_; }
  const std::shared_ptr<metric::MetricSpace>& shared_space() const {
    return space_;
  }

  /// The space as a mutable EuclideanSpace, or nullptr when the instance
  /// lives in a non-Euclidean metric. Euclidean-only algorithms
  /// (expected point, Weiszfeld refinement) require this.
  metric::EuclideanSpace* euclidean() const { return euclidean_; }

  /// True iff the space is Euclidean (more precisely, a normed R^d).
  bool is_euclidean() const { return euclidean_ != nullptr; }

  /// The deduplicated union of all location sites, sorted ascending.
  /// This is the natural candidate-center set for discrete solvers.
  std::vector<metric::SiteId> LocationSites() const;

  /// max_i SupportDiameter(P_i): how "spread out" the uncertainty is.
  double MaxSupportDiameter() const;

  std::string ToString() const;

 private:
  UncertainDataset(std::shared_ptr<metric::MetricSpace> space,
                   const std::vector<UncertainPoint>& points);

  std::shared_ptr<metric::MetricSpace> space_;
  metric::EuclideanSpace* euclidean_ = nullptr;  // Borrowed from space_.

  // Flat location storage: parallel site/probability arrays plus the
  // CSR offsets (n + 1 entries).
  std::vector<metric::SiteId> sites_;
  std::vector<double> probabilities_;
  std::vector<size_t> offsets_;
  size_t max_locations_ = 0;
};

}  // namespace uncertain
}  // namespace ukc

#endif  // UKC_UNCERTAIN_DATASET_H_
