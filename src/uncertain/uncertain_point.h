// The paper's input object: an uncertain point, i.e. an independent
// discrete distribution over finitely many locations of a metric space.
//
// Two representations live here:
//   - UncertainPoint: the owning boundary type used to *build* datasets
//     (validates probabilities, merges duplicate sites). It holds its
//     own AoS location vector.
//   - UncertainPointView: a non-owning view over the dataset's flat
//     parallel arrays (site_ids[] / probabilities[]). Once a dataset is
//     built, all access goes through views; hot loops should stream the
//     dataset's flat arrays directly instead of iterating per point.

#ifndef UKC_UNCERTAIN_UNCERTAIN_POINT_H_
#define UKC_UNCERTAIN_UNCERTAIN_POINT_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "metric/metric_space.h"

namespace ukc {
namespace uncertain {

/// One possible location of an uncertain point, with its probability.
struct Location {
  metric::SiteId site = metric::kInvalidSite;
  double probability = 0.0;
};

/// The shared per-point distribution invariant enforced by every
/// ingestion entry point (UncertainPoint::Build, the chunked
/// uncertain::DatasetReader, and stream::MakeProducerBatchSource):
/// at least one location, every probability positive and finite (NaN
/// and ±inf both fail), and the total within
/// UncertainPoint::kProbabilityTolerance of 1. Callers add their own
/// provenance via Status::WithPrefix; the core message is produced
/// here, once, so the entry points cannot drift apart in what they
/// accept or how they report it.
Status ValidateDistribution(std::span<const double> probabilities);

/// The shared coordinate input domain, enforced by every Euclidean
/// ingestion entry point (uncertain::DatasetReader — and through it
/// LoadDataset and the streaming file source —,
/// stream::MakeProducerBatchSource and serve::TenantRegistry::
/// SubmitAppend): `coords` holds whole locations of `dim` values each,
/// and every value is finite with |x| <= sqrt(DBL_MAX / (4·dim)), the
/// range in which no distance kernel can overflow (derivation at the
/// definition). Like ValidateDistribution, it produces the core
/// message once; callers add provenance via Status::WithPrefix.
Status ValidateCoordinates(std::span<const double> coords, size_t dim);

/// Iterates Location values zipped on the fly from a pair of parallel
/// (site, probability) arrays. Self-contained: it copies the raw
/// pointers, so it stays valid after the view that produced it is gone
/// (the pointed-to arrays must outlive it, as with any span).
class LocationRange {
 public:
  class Iterator {
   public:
    using value_type = Location;
    using difference_type = std::ptrdiff_t;

    Iterator(const metric::SiteId* site, const double* probability)
        : site_(site), probability_(probability) {}

    Location operator*() const { return Location{*site_, *probability_}; }
    Iterator& operator++() {
      ++site_;
      ++probability_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator copy = *this;
      ++*this;
      return copy;
    }
    bool operator==(const Iterator& other) const = default;

   private:
    const metric::SiteId* site_;
    const double* probability_;
  };

  LocationRange(const metric::SiteId* sites, const double* probabilities,
                size_t count)
      : sites_(sites), probabilities_(probabilities), count_(count) {}

  Iterator begin() const { return Iterator(sites_, probabilities_); }
  Iterator end() const { return Iterator(sites_ + count_, probabilities_ + count_); }
  size_t size() const { return count_; }
  Location operator[](size_t j) const {
    UKC_DCHECK_LT(j, count_);
    return Location{sites_[j], probabilities_[j]};
  }

 private:
  const metric::SiteId* sites_;
  const double* probabilities_;
  size_t count_;
};

/// A lightweight view of one uncertain point inside a flat
/// UncertainDataset: two spans over the dataset's parallel site /
/// probability arrays. Cheap to copy; valid while the dataset lives.
class UncertainPointView {
 public:
  UncertainPointView(const metric::SiteId* sites, const double* probabilities,
                     size_t count)
      : sites_(sites), probabilities_(probabilities), count_(count) {}

  /// Number of locations (the paper's z_i).
  size_t num_locations() const { return count_; }

  metric::SiteId site(size_t j) const {
    UKC_DCHECK_LT(j, count_);
    return sites_[j];
  }
  double probability(size_t j) const {
    UKC_DCHECK_LT(j, count_);
    return probabilities_[j];
  }
  Location location(size_t j) const {
    UKC_DCHECK_LT(j, count_);
    return Location{sites_[j], probabilities_[j]};
  }

  /// Iterable Location values (materialized on the fly from the flat
  /// arrays). Prefer sites()/probabilities() in hot loops.
  LocationRange locations() const {
    return LocationRange(sites_, probabilities_, count_);
  }

  /// Direct access to the underlying parallel arrays.
  std::span<const metric::SiteId> sites() const { return {sites_, count_}; }
  std::span<const double> probabilities() const {
    return {probabilities_, count_};
  }

  /// The location with the largest probability (ties: first).
  Location ModalLocation() const;

  /// Expected distance E[d(P̂, q)] = Σ_j p_j d(site_j, q).
  double ExpectedDistanceTo(const metric::MetricSpace& space,
                            metric::SiteId q) const;

  /// Expected distance to the nearest of several candidate sites, i.e.
  /// min_c E[d(P̂, c)] together with the argmin (the paper's ED rule).
  /// Returns kInvalidSite for an empty candidate list.
  metric::SiteId MinExpectedDistanceSite(
      const metric::MetricSpace& space,
      const std::vector<metric::SiteId>& candidates,
      double* min_expected = nullptr) const;

  /// Largest pairwise distance within the support; 0 for one location.
  double SupportDiameter(const metric::MetricSpace& space) const;

  std::string ToString() const;

 private:
  const metric::SiteId* sites_;
  const double* probabilities_;
  size_t count_;
};

/// A discrete distribution over sites of a metric space. Immutable once
/// built; Build() validates that probabilities are positive and sum to 1
/// (within kProbabilityTolerance) and that sites are non-negative.
/// Stores its locations as parallel site/probability arrays (the same
/// layout the dataset flattens into) and implements every query by
/// delegating to a view over them — one implementation, two owners.
class UncertainPoint {
 public:
  /// Tolerance on |sum(p) - 1|.
  static constexpr double kProbabilityTolerance = 1e-9;

  /// Validates and constructs. Locations with duplicate sites are
  /// allowed (their probabilities are merged).
  static Result<UncertainPoint> Build(std::vector<Location> locations);

  /// A certain point: one location with probability 1.
  static UncertainPoint Certain(metric::SiteId site);

  /// A view over this point's parallel arrays; valid while the point
  /// lives.
  UncertainPointView view() const {
    return UncertainPointView(sites_.data(), probabilities_.data(),
                              sites_.size());
  }

  /// Number of distinct locations (the paper's z_i).
  size_t num_locations() const { return sites_.size(); }

  /// Location access.
  Location location(size_t j) const { return view().location(j); }
  LocationRange locations() const { return view().locations(); }

  metric::SiteId site(size_t j) const { return view().site(j); }
  double probability(size_t j) const { return view().probability(j); }

  /// The location with the largest probability (ties: first).
  Location ModalLocation() const { return view().ModalLocation(); }

  /// Expected distance E[d(P̂, q)] = Σ_j p_j d(site_j, q).
  double ExpectedDistanceTo(const metric::MetricSpace& space,
                            metric::SiteId q) const {
    return view().ExpectedDistanceTo(space, q);
  }

  /// Expected distance to the nearest of several candidate sites, i.e.
  /// min_c E[d(P̂, c)] together with the argmin (the paper's ED rule).
  /// Returns kInvalidSite for an empty candidate list.
  metric::SiteId MinExpectedDistanceSite(const metric::MetricSpace& space,
                                         const std::vector<metric::SiteId>& candidates,
                                         double* min_expected = nullptr) const {
    return view().MinExpectedDistanceSite(space, candidates, min_expected);
  }

  /// Largest pairwise distance within the support (the point's own
  /// diameter); 0 for a single location.
  double SupportDiameter(const metric::MetricSpace& space) const {
    return view().SupportDiameter(space);
  }

  std::string ToString() const { return view().ToString(); }

 private:
  UncertainPoint(std::vector<metric::SiteId> sites,
                 std::vector<double> probabilities)
      : sites_(std::move(sites)), probabilities_(std::move(probabilities)) {}

  std::vector<metric::SiteId> sites_;
  std::vector<double> probabilities_;
};

}  // namespace uncertain
}  // namespace ukc

#endif  // UKC_UNCERTAIN_UNCERTAIN_POINT_H_
