#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "common/rng.h"
#include "common/strings.h"
#include "metric/euclidean_space.h"
#include "metric/matrix_space.h"
#include "serve/registry.h"
#include "stream/ingest.h"
#include "uncertain/dataset.h"
#include "uncertain/io.h"
#include "uncertain/sampler.h"
#include "uncertain/uncertain_point.h"

namespace ukc {
namespace uncertain {
namespace {

using geometry::Point;
using metric::EuclideanSpace;
using metric::SiteId;

TEST(UncertainPointTest, BuildValidatesProbabilities) {
  EXPECT_TRUE(UncertainPoint::Build({{0, 0.5}, {1, 0.5}}).ok());
  EXPECT_FALSE(UncertainPoint::Build({}).ok());
  EXPECT_FALSE(UncertainPoint::Build({{0, 0.5}, {1, 0.4}}).ok());   // Sum != 1.
  EXPECT_FALSE(UncertainPoint::Build({{0, 1.5}, {1, -0.5}}).ok());  // Negative.
  EXPECT_FALSE(UncertainPoint::Build({{0, 0.0}, {1, 1.0}}).ok());   // Zero prob.
  EXPECT_FALSE(UncertainPoint::Build({{-1, 1.0}}).ok());            // Bad site.
}

TEST(UncertainPointTest, ToleratesTinyRounding) {
  EXPECT_TRUE(
      UncertainPoint::Build({{0, 1.0 / 3}, {1, 1.0 / 3}, {2, 1.0 / 3}}).ok());
}

TEST(UncertainPointTest, MergesDuplicateSites) {
  auto p = UncertainPoint::Build({{5, 0.25}, {5, 0.25}, {7, 0.5}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_locations(), 2u);
  // Merged probability.
  double p5 = 0.0;
  for (const Location& loc : p->locations()) {
    if (loc.site == 5) p5 = loc.probability;
  }
  EXPECT_DOUBLE_EQ(p5, 0.5);
}

TEST(UncertainPointTest, CertainFactory) {
  UncertainPoint p = UncertainPoint::Certain(3);
  EXPECT_EQ(p.num_locations(), 1u);
  EXPECT_EQ(p.site(0), 3);
  EXPECT_DOUBLE_EQ(p.probability(0), 1.0);
}

TEST(UncertainPointTest, ModalLocation) {
  auto p = UncertainPoint::Build({{0, 0.2}, {1, 0.5}, {2, 0.3}});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ModalLocation().site, 1);
}

TEST(UncertainPointTest, ExpectedDistance) {
  auto space = std::make_shared<EuclideanSpace>(1);
  const SiteId a = space->AddPoint(Point{0.0});
  const SiteId b = space->AddPoint(Point{10.0});
  const SiteId q = space->AddPoint(Point{4.0});
  auto p = UncertainPoint::Build({{a, 0.75}, {b, 0.25}});
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p->ExpectedDistanceTo(*space, q), 0.75 * 4.0 + 0.25 * 6.0);
}

TEST(UncertainPointTest, MinExpectedDistanceSite) {
  auto space = std::make_shared<EuclideanSpace>(1);
  const SiteId a = space->AddPoint(Point{0.0});
  const SiteId b = space->AddPoint(Point{10.0});
  const SiteId c1 = space->AddPoint(Point{1.0});
  const SiteId c2 = space->AddPoint(Point{9.0});
  auto p = UncertainPoint::Build({{a, 0.9}, {b, 0.1}});
  ASSERT_TRUE(p.ok());
  double best = 0.0;
  EXPECT_EQ(p->MinExpectedDistanceSite(*space, {c1, c2}, &best), c1);
  EXPECT_DOUBLE_EQ(best, 0.9 * 1.0 + 0.1 * 9.0);
  EXPECT_EQ(p->MinExpectedDistanceSite(*space, {}), metric::kInvalidSite);
}

TEST(UncertainPointTest, SupportDiameter) {
  auto space = std::make_shared<EuclideanSpace>(1);
  const SiteId a = space->AddPoint(Point{0.0});
  const SiteId b = space->AddPoint(Point{3.0});
  const SiteId c = space->AddPoint(Point{7.0});
  auto p = UncertainPoint::Build({{a, 0.4}, {b, 0.3}, {c, 0.3}});
  ASSERT_TRUE(p.ok());
  EXPECT_DOUBLE_EQ(p->SupportDiameter(*space), 7.0);
  EXPECT_DOUBLE_EQ(UncertainPoint::Certain(a).SupportDiameter(*space), 0.0);
}

std::shared_ptr<EuclideanSpace> TinySpace() {
  auto space = std::make_shared<EuclideanSpace>(2);
  for (int i = 0; i < 6; ++i) {
    space->AddPoint(Point{static_cast<double>(i), 0.0});
  }
  return space;
}

TEST(DatasetTest, BuildValidatesSiteRange) {
  auto space = TinySpace();
  std::vector<UncertainPoint> points;
  points.push_back(UncertainPoint::Certain(0));
  points.push_back(UncertainPoint::Certain(99));  // Out of range.
  EXPECT_FALSE(UncertainDataset::Build(space, std::move(points)).ok());
}

TEST(DatasetTest, BuildRejectsEmpty) {
  auto space = TinySpace();
  EXPECT_FALSE(UncertainDataset::Build(space, {}).ok());
  EXPECT_FALSE(UncertainDataset::Build(nullptr, {UncertainPoint::Certain(0)}).ok());
}

TEST(DatasetTest, AccessorsAndStats) {
  auto space = TinySpace();
  std::vector<UncertainPoint> points;
  points.push_back(*UncertainPoint::Build({{0, 0.5}, {1, 0.5}}));
  points.push_back(*UncertainPoint::Build({{2, 0.3}, {3, 0.3}, {4, 0.4}}));
  auto dataset = UncertainDataset::Build(space, std::move(points));
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->n(), 2u);
  EXPECT_EQ(dataset->max_locations(), 3u);
  EXPECT_EQ(dataset->total_locations(), 5u);
  EXPECT_TRUE(dataset->is_euclidean());
  EXPECT_EQ(dataset->LocationSites(), (std::vector<SiteId>{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(dataset->MaxSupportDiameter(), 2.0);  // Sites 2..4.
}

TEST(DatasetTest, LocationSitesDeduplicates) {
  auto space = TinySpace();
  std::vector<UncertainPoint> points;
  points.push_back(*UncertainPoint::Build({{1, 0.5}, {2, 0.5}}));
  points.push_back(*UncertainPoint::Build({{2, 0.5}, {3, 0.5}}));
  auto dataset = UncertainDataset::Build(space, std::move(points));
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->LocationSites(), (std::vector<SiteId>{1, 2, 3}));
}

TEST(SamplerTest, FrequenciesMatchProbabilities) {
  auto space = TinySpace();
  std::vector<UncertainPoint> points;
  points.push_back(*UncertainPoint::Build({{0, 0.2}, {1, 0.8}}));
  points.push_back(*UncertainPoint::Build({{2, 1.0}}));
  auto dataset = UncertainDataset::Build(space, std::move(points));
  ASSERT_TRUE(dataset.ok());

  RealizationSampler sampler(*dataset);
  Rng rng(5);
  int first_is_zero = 0;
  const int samples = 100000;
  Realization realization;
  for (int s = 0; s < samples; ++s) {
    sampler.SampleInto(rng, &realization);
    ASSERT_EQ(realization.size(), 2u);
    if (sampler.SiteOf(realization, 0) == 0) ++first_is_zero;
    EXPECT_EQ(sampler.SiteOf(realization, 1), 2);
  }
  EXPECT_NEAR(static_cast<double>(first_is_zero) / samples, 0.2, 0.01);
}

TEST(SamplerTest, DeterministicGivenSeed) {
  auto space = TinySpace();
  std::vector<UncertainPoint> points;
  points.push_back(*UncertainPoint::Build({{0, 0.5}, {1, 0.5}}));
  auto dataset = UncertainDataset::Build(space, std::move(points));
  ASSERT_TRUE(dataset.ok());
  RealizationSampler sampler(*dataset);
  Rng rng_a(6);
  Rng rng_b(6);
  for (int s = 0; s < 100; ++s) {
    EXPECT_EQ(sampler.Sample(rng_a), sampler.Sample(rng_b));
  }
}

UncertainDataset MakeRoundTripDataset() {
  auto space = std::make_shared<EuclideanSpace>(2);
  const SiteId a = space->AddPoint(Point{0.125, -3.5});
  const SiteId b = space->AddPoint(Point{1e-7, 42.0});
  const SiteId c = space->AddPoint(Point{5.0, 5.0});
  std::vector<UncertainPoint> points;
  points.push_back(*UncertainPoint::Build({{a, 0.25}, {b, 0.75}}));
  points.push_back(*UncertainPoint::Build({{c, 1.0}}));
  return std::move(UncertainDataset::Build(space, std::move(points))).value();
}

TEST(IoTest, SaveLoadRoundTrip) {
  UncertainDataset original = MakeRoundTripDataset();
  std::stringstream buffer;
  ASSERT_TRUE(SaveDataset(original, buffer).ok());
  auto loaded = LoadDataset(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->n(), original.n());
  EXPECT_EQ(loaded->max_locations(), original.max_locations());
  const auto* loaded_space = loaded->euclidean();
  ASSERT_NE(loaded_space, nullptr);
  EXPECT_EQ(loaded_space->dim(), 2u);
  // Exact coordinate and probability round trip (17 significant digits).
  for (size_t i = 0; i < original.n(); ++i) {
    const UncertainPointView p0 = original.point(i);
    const UncertainPointView p1 = loaded->point(i);
    ASSERT_EQ(p0.num_locations(), p1.num_locations());
    for (size_t j = 0; j < p0.num_locations(); ++j) {
      EXPECT_DOUBLE_EQ(p0.probability(j), p1.probability(j));
      EXPECT_EQ(original.euclidean()->point(p0.site(j)),
                loaded_space->point(p1.site(j)));
    }
  }
}

TEST(IoTest, LoadRejectsGarbage) {
  std::stringstream bad1("not a dataset");
  EXPECT_FALSE(LoadDataset(bad1).ok());
  std::stringstream bad2("ukc-dataset 1\ndim 2\nn 1\npoint 2\n0.5 1 2\n");
  EXPECT_FALSE(LoadDataset(bad2).ok());  // Truncated.
  std::stringstream bad3("ukc-dataset 99\ndim 2\nn 1\n");
  EXPECT_FALSE(LoadDataset(bad3).ok());  // Bad version.
  std::stringstream empty("");
  EXPECT_FALSE(LoadDataset(empty).ok());
}

TEST(IoTest, LoadIgnoresCommentsAndBlankLines) {
  std::stringstream text(
      "# header comment\n"
      "ukc-dataset 1\n"
      "\n"
      "dim 1\n"
      "n 1  # one point\n"
      "point 1\n"
      "1.0 2.5\n");
  auto loaded = LoadDataset(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->n(), 1u);
  EXPECT_EQ(loaded->euclidean()->point(loaded->point(0).site(0)), (Point{2.5}));
}

// --- Whole tokens and exact token counts ------------------------------------
//
// Each number token is consumed whole under strtod/strtoll semantics and
// each line holds exactly its rule's tokens. Before, the reader took the
// longest numeric prefix and ignored the rest of the line, accepting
// every input below with a wrong value.

// LoadDataset over a one-point, dim-1 file whose point line and
// location line are given.
Result<UncertainDataset> LoadOnePoint(const std::string& point_line,
                                      const std::string& location_line) {
  std::istringstream text("ukc-dataset 1\ndim 1\nn 1\n" + point_line + "\n" +
                          location_line + "\n");
  return LoadDataset(text);
}

double OnlyCoordinate(const UncertainDataset& dataset) {
  return dataset.euclidean()->point(dataset.point(0).site(0))[0];
}

TEST(IoTokenTest, HexCoordinateReadsAsStrtodReadsIt) {
  // Was accepted as x = 0 (the "0" prefix of the token).
  auto loaded = LoadOnePoint("point 1", "1.0 0x1p3");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(OnlyCoordinate(*loaded), 8.0);
}

TEST(IoTokenTest, CommaInACoordinateIsMalformed) {
  // Was accepted as x = 1.
  auto loaded = LoadOnePoint("point 1", "1.0 1,5");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(),
            "ReadChunk: malformed location line for point 0: '1.0 1,5'");
}

TEST(IoTokenTest, TrailingGarbageInACoordinateIsMalformed) {
  // Was accepted as x = 2.5.
  auto loaded = LoadOnePoint("point 1", "1.0 2.5abc");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(),
            "ReadChunk: malformed location line for point 0: '1.0 2.5abc'");
}

TEST(IoTokenTest, ExtraCoordinateIsMalformed) {
  // The 7 was silently dropped.
  auto loaded = LoadOnePoint("point 1", "1.0 2.5 7");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(),
            "ReadChunk: malformed location line for point 0: '1.0 2.5 7'");
}

TEST(IoTokenTest, ExtraTokenOnThePointLineIsRefused) {
  // Was accepted as "point 1".
  auto loaded = LoadOnePoint("point 1 junk", "1.0 2.5");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(),
            "ReadChunk: expected 'point <z>' for point 0, got 'point 1 junk' "
            "(byte offset 24)");
}

TEST(IoTokenTest, HeaderLinesHoldExactlyTheirTokens) {
  std::istringstream dim("ukc-dataset 1\ndim 1 2\nn 1\npoint 1\n1 0\n");
  auto loaded = LoadDataset(dim);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(),
            "ukc-dataset: expected 'dim <count>', got 'dim 1 2'");
  std::istringstream n("ukc-dataset 1\ndim 1\nn 1.5\npoint 1\n1 0\n");
  loaded = LoadDataset(n);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(),
            "ukc-dataset: expected 'n <count>', got 'n 1.5'");
  std::istringstream norm("ukc-dataset 1\ndim 1\nnorm L1 L2\nn 1\n");
  loaded = LoadDataset(norm);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().message(), "ukc-dataset: malformed norm line");
}

TEST(IoTokenTest, NonFiniteCoordinatesAreMalformed) {
  for (const char* token : {"inf", "-inf", "nan", "1e400"}) {
    auto loaded = LoadOnePoint("point 1", std::string("1.0 ") + token);
    ASSERT_FALSE(loaded.ok()) << token;
    EXPECT_EQ(loaded.status().message(),
              std::string("ReadChunk: malformed location line for point 0: "
                          "'1.0 ") +
                  token + "'");
  }
}

TEST(IoTokenTest, PlusSignsCrlfAndCommentsParse) {
  std::istringstream text(
      "ukc-dataset +1\r\ndim 1\r\nn 1 # one\r\npoint +2\r\n"
      "+0.25 -1.5e0\r\n0.75\t+2.5 # trailing\r\n");
  auto loaded = LoadDataset(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const UncertainPointView p = loaded->point(0);
  ASSERT_EQ(p.num_locations(), 2u);
  EXPECT_EQ(p.probability(0), 0.25);
  EXPECT_EQ(loaded->euclidean()->point(p.site(0))[0], -1.5);
  EXPECT_EQ(loaded->euclidean()->point(p.site(1))[0], 2.5);
}

TEST(IoTest, SaveRejectsNonEuclidean) {
  auto matrix = metric::MatrixSpace::Build({{0, 1}, {1, 0}});
  ASSERT_TRUE(matrix.ok());
  std::vector<UncertainPoint> points;
  points.push_back(*UncertainPoint::Build({{0, 0.5}, {1, 0.5}}));
  auto dataset = UncertainDataset::Build(*matrix, std::move(points));
  ASSERT_TRUE(dataset.ok());
  std::stringstream buffer;
  EXPECT_FALSE(SaveDataset(*dataset, buffer).ok());
}

// --- Shared distribution validation -----------------------------------------
//
// Every ingestion entry point — UncertainPoint::Build, the chunked
// DatasetReader, and the streaming producer source — routes the
// per-point distribution invariant through one ValidateDistribution
// helper. These tests prove the contract: the same malformed input
// (p <= 0, Σp off, NaN) is rejected by all three with the *same* core
// message (each adds only its provenance prefix), so the entry points
// cannot drift apart.

// Runs one probability vector through each entry point and returns the
// three statuses (Build, ReadChunk, producer source), in that order.
std::vector<Status> StatusesFromAllEntryPoints(
    const std::vector<double>& probabilities) {
  std::vector<Status> statuses;

  // 1. UncertainPoint::Build, one distinct site per location.
  std::vector<Location> locations;
  for (size_t j = 0; j < probabilities.size(); ++j) {
    locations.push_back(Location{static_cast<SiteId>(j), probabilities[j]});
  }
  statuses.push_back(UncertainPoint::Build(std::move(locations)).status());

  // 2. DatasetReader::ReadChunk, from a serialized 1-d text stream.
  std::string text = StrFormat("ukc-dataset 1\ndim 1\nn 1\npoint %zu\n",
                               probabilities.size());
  for (size_t j = 0; j < probabilities.size(); ++j) {
    text += StrFormat("%.17g %zu\n", probabilities[j], j);
  }
  std::istringstream stream(text);
  auto reader = DatasetReader::FromStream(stream);
  if (!reader.ok()) {
    statuses.push_back(reader.status());
  } else {
    UncertainPointBatch batch;
    statuses.push_back(reader->ReadChunk(16, &batch).status());
  }

  // 3. stream::MakeProducerBatchSource, one emitted point.
  bool emitted = false;
  auto source = stream::MakeProducerBatchSource(
      1,
      [&](std::vector<double>* coords, std::vector<double>* probs) {
        if (emitted) return false;
        emitted = true;
        for (size_t j = 0; j < probabilities.size(); ++j) {
          coords->push_back(static_cast<double>(j));
          probs->push_back(probabilities[j]);
        }
        return true;
      },
      16);
  UKC_CHECK(source.ok());
  UncertainPointBatch batch;
  statuses.push_back((*source)(&batch).status());
  return statuses;
}

TEST(DistributionValidationTest, EntryPointsShareAcceptance) {
  for (const Status& status :
       StatusesFromAllEntryPoints({0.25, 0.25, 0.5})) {
    EXPECT_TRUE(status.ok()) << status;
  }
}

TEST(DistributionValidationTest, EntryPointsRejectIdentically) {
  const std::vector<std::vector<double>> malformed = {
      {0.5, -0.5},                                        // Negative.
      {0.5, 0.0, 0.5},                                    // Zero.
      {0.3, 0.3},                                         // Σp off.
      {0.5, std::numeric_limits<double>::quiet_NaN()},    // NaN.
      {0.5, std::numeric_limits<double>::infinity()},     // Infinite.
  };
  for (const auto& probabilities : malformed) {
    // The core message every entry point must end with.
    const Status core = ValidateDistribution(probabilities);
    ASSERT_FALSE(core.ok());
    const std::vector<Status> statuses =
        StatusesFromAllEntryPoints(probabilities);
    ASSERT_EQ(statuses.size(), 3u);
    for (size_t entry = 0; entry < statuses.size(); ++entry) {
      ASSERT_FALSE(statuses[entry].ok())
          << "entry point " << entry << " accepted a malformed distribution";
      EXPECT_TRUE(statuses[entry].message().ends_with(core.message()))
          << "entry point " << entry << " drifted: got '"
          << statuses[entry].message() << "', core is '" << core.message()
          << "'";
    }
  }
}

// --- Shared coordinate domain -----------------------------------------------
//
// Every Euclidean ingestion entry point — the text reader (LoadDataset
// and the streaming file source both pull through ReadChunk), the
// producer source, and serve::TenantRegistry::SubmitAppend — routes
// coordinates through one ValidateCoordinates helper, so a coordinate
// whose squared distances would overflow (the 1e200 repro) is refused
// by all of them with the same core message.

// Runs one point (the `dim`-wide locations in `coords`, equal
// probabilities) through each entry point and returns the statuses of
// LoadDataset, the producer source and SubmitAppend, in that order. The
// text format cannot spell NaN or inf (the reader refuses those tokens
// as malformed), so `via_text` = false skips LoadDataset.
std::vector<Status> CoordinateStatusesFromAllEntryPoints(
    const std::vector<double>& coords, size_t dim, bool via_text = true) {
  const size_t z = coords.size() / dim;
  const double probability = 1.0 / static_cast<double>(z);
  std::vector<Status> statuses;

  if (via_text) {
    std::string text =
        StrFormat("ukc-dataset 1\ndim %zu\nn 1\npoint %zu\n", dim, z);
    for (size_t l = 0; l < z; ++l) {
      text += StrFormat("%.17g", probability);
      for (size_t a = 0; a < dim; ++a) {
        text += StrFormat(" %.17g", coords[l * dim + a]);
      }
      text += "\n";
    }
    std::istringstream stream(text);
    statuses.push_back(LoadDataset(stream).status());
  }

  bool emitted = false;
  auto source = stream::MakeProducerBatchSource(
      dim,
      [&](std::vector<double>* out_coords, std::vector<double>* probs) {
        if (emitted) return false;
        emitted = true;
        *out_coords = coords;
        probs->assign(z, probability);
        return true;
      },
      16);
  UKC_CHECK(source.ok());
  UncertainPointBatch batch;
  statuses.push_back((*source)(&batch).status());

  serve::TenantRegistry registry(serve::RegistryOptions{});
  serve::TenantConfig config;
  config.dim = dim;
  UKC_CHECK(registry.CreateTenant("tenant", config).ok());
  UncertainPointBatch append;
  append.dim = dim;
  append.offsets = {0, z};
  append.coords = coords;
  append.probabilities.assign(z, probability);
  statuses.push_back(registry.SubmitAppend("tenant", append));
  return statuses;
}

TEST(CoordinateValidationTest, EntryPointsShareAcceptance) {
  // 5e153 sits inside the d = 1 domain (sqrt(DBL_MAX / 4) ~ 6.7e153).
  for (const Status& status :
       CoordinateStatusesFromAllEntryPoints({5e153, -2.5}, 1)) {
    EXPECT_TRUE(status.ok()) << status;
  }
  for (const Status& status :
       CoordinateStatusesFromAllEntryPoints({0.0, 1e150, -3.0, 4.0}, 2)) {
    EXPECT_TRUE(status.ok()) << status;
  }
}

TEST(CoordinateValidationTest, EntryPointsRejectIdentically) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    std::vector<double> coords;
    size_t dim;
    bool via_text;
  };
  const Case cases[] = {
      {{0.0, 1e200, 1.0, 1.0}, 2, true},  // The overflow repro.
      {{-1e200}, 1, true},
      {{5e153, 0.0, 0.0, 0.0}, 4, true},  // Inside d = 1, outside d = 4.
      {{0.0, kNaN}, 2, false},
      {{kInf, 0.0, 0.0, 0.0}, 2, false},
  };
  for (const Case& c : cases) {
    const Status core = ValidateCoordinates(c.coords, c.dim);
    ASSERT_FALSE(core.ok());
    ASSERT_EQ(core.code(), StatusCode::kInvalidArgument);
    const std::vector<Status> statuses =
        CoordinateStatusesFromAllEntryPoints(c.coords, c.dim, c.via_text);
    for (size_t entry = 0; entry < statuses.size(); ++entry) {
      ASSERT_EQ(statuses[entry].code(), StatusCode::kInvalidArgument)
          << "entry point " << entry << ": " << statuses[entry];
      EXPECT_TRUE(statuses[entry].message().ends_with(core.message()))
          << "entry point " << entry << " drifted: got '"
          << statuses[entry].message() << "', core is '" << core.message()
          << "'";
    }
  }
}

// The domain's edge is where the kernels stop overflowing: at the
// largest accepted magnitude, two antipodal corners of the box are at
// a finite distance under every norm, for small and large d.
TEST(CoordinateValidationTest, LargestAcceptedMagnitudeKeepsKernelsFinite) {
  for (size_t dim : {1u, 2u, 3u, 64u}) {
    double accepted = 1.0;
    double rejected = 1e300;
    while (std::nextafter(accepted, rejected) != rejected) {
      const double mid = accepted + (rejected - accepted) / 2.0;
      if (ValidateCoordinates(std::vector<double>(dim, mid), dim).ok()) {
        accepted = mid;
      } else {
        rejected = mid;
      }
    }
    const std::vector<double> a(dim, accepted);
    const std::vector<double> b(dim, -accepted);
    EXPECT_TRUE(std::isfinite(
        geometry::SquaredDistanceKernel(a.data(), b.data(), dim)))
        << "dim=" << dim;
    for (metric::Norm norm :
         {metric::Norm::kL1, metric::Norm::kL2, metric::Norm::kLInf}) {
      EXPECT_TRUE(std::isfinite(
          metric::NormDistanceKernel(norm, a.data(), b.data(), dim)))
          << "dim=" << dim;
    }
  }
}

}  // namespace
}  // namespace uncertain
}  // namespace ukc
