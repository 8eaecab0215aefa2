#include "uncertain/dataset.h"

#include <algorithm>

#include "common/strings.h"

namespace ukc {
namespace uncertain {

Result<UncertainDataset> UncertainDataset::Build(
    std::shared_ptr<metric::MetricSpace> space,
    std::vector<UncertainPoint> points) {
  if (space == nullptr) {
    return Status::InvalidArgument("UncertainDataset: null metric space");
  }
  if (points.empty()) {
    return Status::InvalidArgument("UncertainDataset: no uncertain points");
  }
  const metric::SiteId num_sites = space->num_sites();
  for (size_t i = 0; i < points.size(); ++i) {
    for (const Location& loc : points[i].locations()) {
      if (loc.site < 0 || loc.site >= num_sites) {
        return Status::InvalidArgument(
            StrFormat("UncertainDataset: point %zu references site %d, but the "
                      "space has %d sites",
                      i, loc.site, num_sites));
      }
    }
  }
  return UncertainDataset(std::move(space), points);
}

UncertainDataset::UncertainDataset(std::shared_ptr<metric::MetricSpace> space,
                                   const std::vector<UncertainPoint>& points)
    : space_(std::move(space)) {
  euclidean_ = dynamic_cast<metric::EuclideanSpace*>(space_.get());
  size_t total = 0;
  for (const UncertainPoint& p : points) total += p.num_locations();
  sites_.reserve(total);
  probabilities_.reserve(total);
  offsets_.reserve(points.size() + 1);
  offsets_.push_back(0);
  for (const UncertainPoint& p : points) {
    for (const Location& loc : p.locations()) {
      sites_.push_back(loc.site);
      probabilities_.push_back(loc.probability);
    }
    offsets_.push_back(sites_.size());
    max_locations_ = std::max(max_locations_, p.num_locations());
  }
}

std::vector<metric::SiteId> UncertainDataset::LocationSites() const {
  std::vector<metric::SiteId> sites(sites_.begin(), sites_.end());
  std::sort(sites.begin(), sites.end());
  sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
  return sites;
}

double UncertainDataset::MaxSupportDiameter() const {
  double worst = 0.0;
  for (size_t i = 0; i < n(); ++i) {
    worst = std::max(worst, point(i).SupportDiameter(*space_));
  }
  return worst;
}

std::string UncertainDataset::ToString() const {
  return StrFormat("UncertainDataset(n=%zu, z=%zu, space=%s)", n(),
                   max_locations(), space_->Name().c_str());
}

}  // namespace uncertain
}  // namespace ukc
