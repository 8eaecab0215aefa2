#include "uncertain/uncertain_point.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/strings.h"

namespace ukc {
namespace uncertain {

Status ValidateDistribution(std::span<const double> probabilities) {
  if (probabilities.empty()) {
    return Status::InvalidArgument("distribution has no locations");
  }
  double total = 0.0;
  for (size_t j = 0; j < probabilities.size(); ++j) {
    const double p = probabilities[j];
    if (!(p > 0.0) || std::isinf(p)) {
      return Status::InvalidArgument(
          StrFormat("location %zu has probability %g; probabilities must be "
                    "positive and finite",
                    j, p));
    }
    total += p;
  }
  if (std::abs(total - 1.0) > UncertainPoint::kProbabilityTolerance) {
    return Status::InvalidArgument(
        StrFormat("probabilities sum to %.12g, want 1", total));
  }
  return Status::OK();
}

Status ValidateCoordinates(std::span<const double> coords, size_t dim) {
  if (dim == 0) return Status::InvalidArgument("coordinates need dim >= 1");
  if (coords.size() % dim != 0) {
    return Status::InvalidArgument(
        StrFormat("%zu coordinates do not form whole locations of dim %zu",
                  coords.size(), dim));
  }
  // For x, y in [-B, B]^d every axis difference is at most 2B, so the
  // squared L2 distance is at most 4·d·B², which is <= DBL_MAX for
  // B = sqrt(DBL_MAX / (4d)); the L1 (<= 2dB) and LInf (<= 2B) kernels
  // and every partial sum stay below the same bound. The bound itself
  // and the kernel each round at most d + 5 times by 2^-53 relative, so
  // the 1e-6 deflation keeps 4·d·B² strictly below DBL_MAX after
  // rounding for any d < 2^30: no kernel can return inf.
  const double bound =
      std::sqrt(std::numeric_limits<double>::max() /
                (4.0 * static_cast<double>(dim))) *
      (1.0 - 1e-6);
  for (size_t j = 0; j < coords.size(); ++j) {
    if (!(std::abs(coords[j]) <= bound)) {
      return Status::InvalidArgument(
          StrFormat("location %zu coordinate %zu is %g; coordinates must be "
                    "finite with magnitude at most %.6g (dim %zu)",
                    j / dim, j % dim, coords[j], bound, dim));
    }
  }
  return Status::OK();
}

Location UncertainPointView::ModalLocation() const {
  size_t best = 0;
  for (size_t j = 1; j < count_; ++j) {
    if (probabilities_[j] > probabilities_[best]) best = j;
  }
  return Location{sites_[best], probabilities_[best]};
}

double UncertainPointView::ExpectedDistanceTo(const metric::MetricSpace& space,
                                              metric::SiteId q) const {
  double total = 0.0;
  for (size_t j = 0; j < count_; ++j) {
    total += probabilities_[j] * space.Distance(sites_[j], q);
  }
  return total;
}

metric::SiteId UncertainPointView::MinExpectedDistanceSite(
    const metric::MetricSpace& space,
    const std::vector<metric::SiteId>& candidates, double* min_expected) const {
  metric::SiteId best = metric::kInvalidSite;
  double best_value = std::numeric_limits<double>::infinity();
  for (metric::SiteId c : candidates) {
    const double value = ExpectedDistanceTo(space, c);
    if (value < best_value) {
      best_value = value;
      best = c;
    }
  }
  if (min_expected != nullptr) *min_expected = best_value;
  return best;
}

double UncertainPointView::SupportDiameter(
    const metric::MetricSpace& space) const {
  double worst = 0.0;
  for (size_t a = 0; a < count_; ++a) {
    for (size_t b = a + 1; b < count_; ++b) {
      worst = std::max(worst, space.Distance(sites_[a], sites_[b]));
    }
  }
  return worst;
}

std::string UncertainPointView::ToString() const {
  std::string out = "{";
  for (size_t j = 0; j < count_; ++j) {
    if (j > 0) out += ", ";
    out += StrFormat("site %d: %.4g", sites_[j], probabilities_[j]);
  }
  out += "}";
  return out;
}

Result<UncertainPoint> UncertainPoint::Build(std::vector<Location> locations) {
  if (locations.empty()) {
    return Status::InvalidArgument("UncertainPoint: no locations");
  }
  std::vector<double> raw_probabilities;
  raw_probabilities.reserve(locations.size());
  for (size_t j = 0; j < locations.size(); ++j) {
    if (locations[j].site < 0) {
      return Status::InvalidArgument(
          StrFormat("UncertainPoint: location %zu has invalid site %d", j,
                    locations[j].site));
    }
    raw_probabilities.push_back(locations[j].probability);
  }
  UKC_RETURN_IF_ERROR(
      ValidateDistribution(raw_probabilities).WithPrefix("UncertainPoint"));
  // Merge duplicate sites.
  std::map<metric::SiteId, double> merged;
  for (const Location& loc : locations) {
    merged[loc.site] += loc.probability;
  }
  std::vector<metric::SiteId> sites;
  std::vector<double> probabilities;
  sites.reserve(merged.size());
  probabilities.reserve(merged.size());
  for (const auto& [site, prob] : merged) {
    sites.push_back(site);
    probabilities.push_back(prob);
  }
  return UncertainPoint(std::move(sites), std::move(probabilities));
}

UncertainPoint UncertainPoint::Certain(metric::SiteId site) {
  UKC_CHECK_GE(site, 0);
  return UncertainPoint({site}, {1.0});
}

}  // namespace uncertain
}  // namespace ukc
