// Mutation harness for the ukc text format (uncertain/io.h).
//
// A seed-driven byte mutator edits valid files — SaveDataset output, a
// generated file of more than three 64 KiB read blocks, so records
// straddle block refills, and lines longer than a block. The oracle is
// a small line reader that implements the documented grammar with
// std::string and std::strtod. For every mutant, DatasetReader must
// agree with the oracle on accept/reject, and an accepted mutant's
// batches must be bitwise equal to the oracle's arrays.
//
// Mutator draws are pure functions of (seed, site, hit), as fault
// decisions are (common/fault_injection.h): a failing mutant is
// reproduced from its seed and index alone. Extra seeds come from
// UKC_FAULTS:
//
//   UKC_FAULTS=11,23 ctest -R parse_mutation

#include <gtest/gtest.h>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"
#include "uncertain/generators.h"
#include "uncertain/io.h"
#include "uncertain/uncertain_point.h"

namespace ukc {
namespace {

constexpr size_t kBlockBytes = size_t{64} << 10;

// One parse of an input: accepted or not, and what it read.
struct Parsed {
  bool ok = false;
  size_t dim = 0;
  metric::Norm norm = metric::Norm::kL2;
  std::vector<size_t> offsets{0};
  std::vector<double> coords;
  std::vector<double> probabilities;
};

// --- Oracle -----------------------------------------------------------------

// The non-blank lines of `text`: split on '\n', cut at '#', trimmed of
// ' ', '\t', '\r', '\n'.
std::vector<std::string> OracleLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    line = line.substr(0, line.find('#'));
    const size_t first = line.find_first_not_of(" \t\r\n");
    if (first == std::string::npos) continue;
    lines.push_back(
        line.substr(first, line.find_last_not_of(" \t\r\n") - first + 1));
  }
  return lines;
}

std::vector<std::string> OracleTokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::string token;
  for (const char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!token.empty()) tokens.push_back(token);
      token.clear();
    } else {
      token += c;
    }
  }
  if (!token.empty()) tokens.push_back(token);
  return tokens;
}

bool WholeDouble(const std::string& token, double* out) {
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

bool WholeInteger(const std::string& token, long long* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtoll(token.c_str(), &end, 10);
  return end == token.c_str() + token.size() && errno != ERANGE;
}

bool KeyedInteger(const std::string& line, const char* key, long long* out) {
  const std::vector<std::string> tokens = OracleTokens(line);
  return tokens.size() == 2 && tokens[0] == key &&
         WholeInteger(tokens[1], out);
}

Parsed OracleParse(const std::string& text) {
  Parsed out;
  const std::vector<std::string> lines = OracleLines(text);
  size_t next = 0;
  std::string line;
  const auto next_line = [&]() {
    if (next == lines.size()) return false;
    line = lines[next++];
    return true;
  };
  long long value = 0;
  if (!next_line()) return out;
  std::vector<std::string> tokens = OracleTokens(line);
  if (tokens.size() != 2 || tokens[0] != "ukc-dataset" ||
      !WholeInteger(tokens[1], &value) || value != 1) {
    return out;
  }
  if (!next_line() || !KeyedInteger(line, "dim", &value) || value < 1) {
    return out;
  }
  out.dim = static_cast<size_t>(value);
  if (!next_line()) return out;
  tokens = OracleTokens(line);
  if (!tokens.empty() && tokens[0] == "norm") {
    if (tokens.size() != 2) return out;
    if (tokens[1] == "L2") {
      out.norm = metric::Norm::kL2;
    } else if (tokens[1] == "L1") {
      out.norm = metric::Norm::kL1;
    } else if (tokens[1] == "LInf") {
      out.norm = metric::Norm::kLInf;
    } else {
      return out;
    }
    if (!next_line()) return out;
  }
  long long n = 0;
  if (!KeyedInteger(line, "n", &n) || n < 1) return out;
  for (long long i = 0; i < n; ++i) {
    long long z = 0;
    if (!next_line() || !KeyedInteger(line, "point", &z) || z < 1) return out;
    const size_t begin = out.probabilities.size();
    for (long long j = 0; j < z; ++j) {
      if (!next_line()) return out;
      tokens = OracleTokens(line);
      if (tokens.size() != out.dim + 1) return out;
      double probability = 0.0;
      if (!WholeDouble(tokens[0], &probability)) return out;
      for (size_t a = 0; a < out.dim; ++a) {
        double x = 0.0;
        if (!WholeDouble(tokens[1 + a], &x) || !std::isfinite(x)) return out;
        out.coords.push_back(x);
      }
      out.probabilities.push_back(probability);
    }
    const std::span<const double> probabilities(
        out.probabilities.data() + begin, out.probabilities.size() - begin);
    const std::span<const double> coords(
        out.coords.data() + begin * out.dim,
        out.coords.size() - begin * out.dim);
    if (!uncertain::ValidateDistribution(probabilities).ok() ||
        !uncertain::ValidateCoordinates(coords, out.dim).ok()) {
      return out;
    }
    out.offsets.push_back(out.probabilities.size());
  }
  out.ok = true;
  return out;
}

// --- The reader under test --------------------------------------------------

Parsed ReaderParse(Result<uncertain::DatasetReader> opened, size_t chunk) {
  Parsed out;
  if (!opened.ok()) return out;
  uncertain::DatasetReader& reader = *opened;
  out.dim = reader.dim();
  out.norm = reader.norm();
  uncertain::UncertainPointBatch batch;
  size_t expected_start = 0;
  while (true) {
    Result<size_t> produced = reader.ReadChunk(chunk, &batch);
    if (!produced.ok()) return out;
    if (*produced == 0) break;
    EXPECT_EQ(batch.start_index, expected_start);
    EXPECT_LE(*produced, chunk);
    expected_start += *produced;
    const size_t base = out.probabilities.size();
    for (size_t i = 1; i < batch.offsets.size(); ++i) {
      out.offsets.push_back(base + batch.offsets[i]);
    }
    out.coords.insert(out.coords.end(), batch.coords.begin(),
                      batch.coords.end());
    out.probabilities.insert(out.probabilities.end(),
                             batch.probabilities.begin(),
                             batch.probabilities.end());
  }
  EXPECT_EQ(reader.num_read(), reader.num_points());
  out.ok = true;
  return out;
}

Parsed ReadFromString(const std::string& text, size_t chunk) {
  std::istringstream stream(text);
  return ReaderParse(uncertain::DatasetReader::FromStream(stream), chunk);
}

Parsed ReadFromFile(const std::string& text, size_t chunk) {
  // A fresh file each time: overwriting one in place can force a
  // writeback on some filesystems.
  const std::string path = ::testing::TempDir() + "/parse_mutation.ukc";
  std::remove(path.c_str());
  std::ofstream(path, std::ios::binary) << text;
  return ReaderParse(uncertain::DatasetReader::Open(path), chunk);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// gtest-printable form of a mutant: non-printing bytes escaped, long
// inputs cut to the region around `focus`.
std::string Escape(const std::string& text, size_t focus) {
  const size_t begin = focus > 200 ? focus - 200 : 0;
  std::string out;
  for (size_t i = begin; i < text.size() && i < begin + 400; ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    out += std::isprint(c) ? std::string(1, static_cast<char>(c))
                           : StrFormat("\\x%02x", c);
  }
  return out;
}

// Asserts the reader and the oracle agree on `text`; returns whether the
// oracle accepted it.
bool ExpectAgreement(const Parsed& reader, const std::string& text,
                     const std::string& what, size_t focus) {
  const Parsed oracle = OracleParse(text);
  EXPECT_EQ(reader.ok, oracle.ok)
      << what << " (reader " << (reader.ok ? "accepted" : "refused")
      << ") near byte " << focus << ": " << Escape(text, focus);
  if (reader.ok && oracle.ok) {
    EXPECT_EQ(reader.dim, oracle.dim) << what;
    EXPECT_EQ(reader.norm, oracle.norm) << what;
    EXPECT_EQ(reader.offsets, oracle.offsets) << what;
    EXPECT_TRUE(SameBits(reader.coords, oracle.coords)) << what;
    EXPECT_TRUE(SameBits(reader.probabilities, oracle.probabilities)) << what;
  }
  return oracle.ok;
}

// --- Inputs -----------------------------------------------------------------

std::string SavedText(metric::Norm norm) {
  uncertain::EuclideanInstanceOptions options;
  options.n = 12;
  options.z = 3;
  options.dim = 2;
  options.seed = 5;
  auto dataset = uncertain::GenerateUniformInstance(options);
  UKC_CHECK(dataset.ok());
  std::ostringstream out;
  UKC_CHECK(uncertain::SaveDataset(*dataset, out).ok());
  std::string text = out.str();
  if (norm == metric::Norm::kL1) {
    // The same points under an L1 header: the optional norm line.
    text.insert(text.find("\nn ") + 1, "norm L1\n");
  }
  return text;
}

// A dim-3 file of more than three read blocks that uses every freedom
// the grammar allows: CRLF, comments, blank lines, tabs, '+' signs,
// exponent and hex spellings.
std::string DecoratedText() {
  Rng rng(17);
  const size_t n = 2400;
  std::string text = StrFormat("# generated\r\nukc-dataset 1\ndim 3\nn %zu\n", n);
  const auto end_line = [&]() {
    switch (rng.UniformInt(0, 5)) {
      case 0:
        return std::string("\r\n");
      case 1:
        return std::string("  # note\n");
      case 2:
        return std::string("\n\n");
      default:
        return std::string("\n");
    }
  };
  const auto number = [&](double value) {
    switch (rng.UniformInt(0, 5)) {
      case 0:
        return StrFormat("%+.17g", value);
      case 1:
        return StrFormat("%.17e", value);
      case 2:
        return StrFormat("%a", value);
      default:
        return StrFormat("%.17g", value);
    }
  };
  for (size_t i = 0; i < n; ++i) {
    const int z = static_cast<int>(rng.UniformInt(1, 4));
    text += StrFormat("point %d", z) + end_line();
    std::vector<double> weights(z);
    double total = 0.0;
    for (double& w : weights) total += (w = rng.UniformDouble(0.1, 1.0));
    for (int j = 0; j < z; ++j) {
      text += number(weights[j] / total);
      for (int a = 0; a < 3; ++a) {
        text += rng.UniformInt(0, 3) == 0 ? "\t" : " ";
        text += number(rng.UniformDouble(-1e3, 1e3));
      }
      text += end_line();
    }
  }
  return text;
}

// Lines longer than a read block: a 100 KB comment and a location line
// whose tokens are 80 KB of padding apart, so each carries over a refill.
std::string LongLinesText() {
  return "ukc-dataset 1\ndim 2\n#" + std::string(100000, 'c') +
         "\nn 2\npoint 1\n1" + std::string(80000, ' ') + "2.5\t" +
         std::string(80000, '\t') + "-3\npoint 2\n0.5 1 1\n0.5 2 2\n";
}

// --- Mutator ----------------------------------------------------------------

uint64_t Draw(uint64_t seed, const char* site, uint64_t hit) {
  return Mix64(seed ^ HashString(site) ^ Mix64(hit));
}

// Byte strings the grammar gives meaning to, or that end or cut a line.
const std::string_view kDictionary[] = {
    "+",    "-",     "#",     "\r",  std::string_view("\0", 1),
    "0x",   "e",     "E",     ".",   " ",
    "\t",   "\n",    "\v",    "0",   "9",
    "nan",  "inf",   "1e400", ",",   "point 1\n",
};

// Edit position: a quarter of the draws land within 40 bytes of a
// block boundary, where a record straddles two refills.
size_t PickPosition(size_t size, uint64_t draw) {
  if (size == 0) return 0;
  if (size > kBlockBytes && (draw & 3) == 0) {
    const size_t boundary = kBlockBytes * (1 + (draw >> 2) % (size / kBlockBytes));
    const size_t pos = boundary - 40 + (draw >> 32) % 80;
    return pos < size ? pos : size - 1;
  }
  return static_cast<size_t>((draw >> 2) % size);
}

// 1-3 edits of `input`: a bit flip, a dictionary insert, a deletion of
// 1-8 bytes, or a splice of up to 32 bytes copied from elsewhere in the
// input. *focus is the position of the first edit.
std::string Mutate(const std::string& input, uint64_t seed, uint64_t mutant,
                   size_t* focus) {
  std::string text = input;
  const uint64_t edits = 1 + Draw(seed, "mutate.edits", mutant) % 3;
  for (uint64_t e = 0; e < edits; ++e) {
    const uint64_t hit = mutant * 4 + e;
    const size_t pos =
        PickPosition(text.size(), Draw(seed, "mutate.position", hit));
    const uint64_t arg = Draw(seed, "mutate.argument", hit);
    if (e == 0) *focus = pos;
    switch (Draw(seed, "mutate.kind", hit) % 4) {
      case 0:
        if (pos < text.size()) text[pos] ^= static_cast<char>(1 << (arg % 8));
        break;
      case 1:
        text.insert(pos, kDictionary[arg % std::size(kDictionary)]);
        break;
      case 2:
        text.erase(pos, 1 + arg % 8);
        break;
      default: {
        const size_t from = static_cast<size_t>((arg >> 8) % input.size());
        text.replace(pos, 1 + arg % 8, input.substr(from, 1 + (arg >> 4) % 32));
        break;
      }
    }
  }
  return text;
}

std::vector<uint64_t> Seeds() {
  std::vector<uint64_t> seeds = {1, 2, 3};
  for (const uint64_t seed : FaultSeedsFromEnv()) seeds.push_back(seed);
  return seeds;
}

// --- Tests ------------------------------------------------------------------

TEST(ParseMutationTest, DecoratedFileSpansMoreThanThreeBlocks) {
  EXPECT_GT(DecoratedText().size(), 3 * kBlockBytes);
}

TEST(ParseMutationTest, UnmutatedFilesMatchTheOracleAtEveryChunkSize) {
  const std::string inputs[] = {SavedText(metric::Norm::kL2),
                                SavedText(metric::Norm::kL1),
                                DecoratedText(), LongLinesText()};
  for (const std::string& text : inputs) {
    for (const size_t chunk : {size_t{1}, size_t{7}, size_t{4096}}) {
      const std::string what = StrFormat("chunk %zu", chunk);
      EXPECT_TRUE(ExpectAgreement(ReadFromString(text, chunk), text, what, 0))
          << what << ": the unmutated input must parse";
      EXPECT_TRUE(ExpectAgreement(ReadFromFile(text, chunk), text, what, 0));
    }
  }
}

TEST(ParseMutationTest, MutantsMatchTheOracle) {
  struct Input {
    std::string text;
    int mutants;
  };
  const Input inputs[] = {{SavedText(metric::Norm::kL2), 400},
                          {SavedText(metric::Norm::kL1), 200},
                          {DecoratedText(), 40},
                          {LongLinesText(), 20}};
  const size_t chunks[] = {1, 7, 4096};
  size_t accepted = 0;
  size_t refused = 0;
  for (const uint64_t seed : Seeds()) {
    for (size_t i = 0; i < std::size(inputs); ++i) {
      for (int m = 0; m < inputs[i].mutants; ++m) {
        const uint64_t mutant = i * 100000 + static_cast<uint64_t>(m);
        size_t focus = 0;
        const std::string text = Mutate(inputs[i].text, seed, mutant, &focus);
        const size_t chunk = chunks[m % 3];
        // Every sixteenth mutant goes through the owned-file path.
        const Parsed reader = m % 16 == 0 ? ReadFromFile(text, chunk)
                                         : ReadFromString(text, chunk);
        const std::string what = StrFormat(
            "seed %llu mutant %llu chunk %zu",
            static_cast<unsigned long long>(seed),
            static_cast<unsigned long long>(mutant), chunk);
        (ExpectAgreement(reader, text, what, focus) ? accepted : refused) += 1;
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
  // Both classes occur, or the harness tests nothing.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace ukc
