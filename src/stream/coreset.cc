#include "stream/coreset.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "common/strings.h"

namespace ukc {
namespace stream {

uint64_t HashCoresetOptions(uint64_t hash, const CoresetOptions& options) {
  hash = HashValue(hash, options.max_cells);
  hash = HashBytes(hash, &options.base_cell_width,
                   sizeof(options.base_cell_width));
  hash = HashValue(hash, options.churn_bucket);
  return HashValue(hash, static_cast<uint64_t>(options.track_members));
}

namespace {

// Levels beyond this collapse every representable key to {-1, 0}: no
// further doubling can help, so the reduction loop stops here.
constexpr int kMaxLevel = 62;

// Version tag of the SerializeTo byte layout. Bump on any layout
// change; Deserialize rejects unknown versions, which the checkpoint
// layer degrades to a full re-ingest. v2 added the churn-mode fields
// (churn_bucket, track_members, watermark, per-cell buckets).
constexpr uint32_t kSerializeVersion = 2;

void AppendRaw(std::string* out, const void* data, size_t bytes) {
  out->append(static_cast<const char*>(data), bytes);
}

template <typename T>
void AppendValue(std::string* out, T value) {
  AppendRaw(out, &value, sizeof(T));
}

// Bounds-checked sequential reader over the serialized image.
struct ByteCursor {
  const char* p;
  const char* end;

  bool Read(void* out, size_t bytes) {
    if (static_cast<size_t>(end - p) < bytes) return false;
    std::memcpy(out, p, bytes);
    p += bytes;
    return true;
  }

  template <typename T>
  bool ReadValue(T* out) {
    return Read(out, sizeof(T));
  }
};

// Cap on |coord / base_cell_width|: 2^44. Well below int64 overflow,
// and chosen so the floating-point division's absolute error stays
// under 2^44 · eps ≈ 2e-3 — two same-cell points are then within
// (1 + 2·2e-3) cell widths per axis, which the diameter() slack of
// 1e-2 absorbs rigorously. (At larger quotients the ulp of the
// quotient exceeds the slack and the cell-diameter invariant would
// silently break.)
constexpr double kMaxBaseKeyMagnitude = 17592186044416.0;  // 2^44

}  // namespace

size_t StreamingCoreset::KeyHash::operator()(const Key& key) const {
  // splitmix64-style combine; the key is a handful of int64s.
  uint64_t h = 0x9e3779b97f4a7c15ull ^ key.size();
  for (int64_t v : key) {
    uint64_t x = static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ull + h;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    h = x ^ (x >> 31);
  }
  return static_cast<size_t>(h);
}

StreamingCoreset::StreamingCoreset(size_t dim, metric::Norm norm,
                                   CoresetOptions options)
    : dim_(dim), norm_(norm), options_(options), key_scratch_(dim, 0) {
  UKC_CHECK(dim_ > 0) << "StreamingCoreset: dim must be >= 1";
  UKC_CHECK(options_.max_cells > 0)
      << "StreamingCoreset: max_cells must be >= 1";
  UKC_CHECK(options_.base_cell_width > 0.0)
      << "StreamingCoreset: base_cell_width must be > 0";
  UKC_CHECK(!options_.track_members || options_.churn_bucket > 0)
      << "StreamingCoreset: track_members requires churn_bucket > 0";
}

double StreamingCoreset::cell_width() const {
  return std::ldexp(options_.base_cell_width, level_);
}

double StreamingCoreset::diameter() const {
  const double width = cell_width();
  double factor = 1.0;
  switch (norm_) {
    case metric::Norm::kL2:
      factor = std::sqrt(static_cast<double>(dim_));
      break;
    case metric::Norm::kL1:
      factor = static_cast<double>(dim_);
      break;
    case metric::Norm::kLInf:
      factor = 1.0;
      break;
  }
  // The 1e-2 relative slack rigorously absorbs the floating-point
  // x / width quotient: with |x / base_cell_width| capped at 2^44
  // (kMaxBaseKeyMagnitude), two members of one cell are within
  // (1 + 2·2^44·eps) < 1.004 widths per axis.
  return width * factor * (1.0 + 1e-2);
}

double StreamingCoreset::max_spread() const {
  double spread = 0.0;
  for (const auto& [key, state] : cells_) {
    spread = std::max(spread, state.max_spread);
  }
  return spread;
}

double StreamingCoreset::error_bound() const { return diameter() + max_spread(); }

size_t StreamingCoreset::ApproxMemoryBytes() const {
  // Key + state + representative per cell, plus the table's buckets.
  const size_t per_cell = dim_ * (sizeof(int64_t) + sizeof(double)) +
                          sizeof(CellState) + sizeof(void*);
  size_t bytes = cells_.size() * per_cell + cells_.bucket_count() * sizeof(void*);
  if (churn()) {
    // Churn mode keeps per-bucket sub-aggregates (and, with
    // track_members, O(live points) member records).
    const size_t per_bucket =
        sizeof(uint64_t) + sizeof(BucketState) + dim_ * sizeof(double);
    const size_t per_member = sizeof(Member) + dim_ * sizeof(double);
    for (const auto& [key, state] : cells_) {
      bytes += state.buckets.size() * per_bucket;
      for (const auto& [b, bucket] : state.buckets) {
        bytes += bucket.members.size() * per_member;
      }
    }
  }
  return bytes;
}

Status StreamingCoreset::ComputeKey(const double* expected_coords) {
  // The base-level key is the only floating-point step of the whole
  // structure; every later level is an exact arithmetic shift of it.
  for (size_t a = 0; a < dim_; ++a) {
    const double q =
        std::floor(expected_coords[a] / options_.base_cell_width);
    if (!(q >= -kMaxBaseKeyMagnitude && q <= kMaxBaseKeyMagnitude)) {
      return Status::InvalidArgument(StrFormat(
          "StreamingCoreset: coordinate %.6g overflows the level-0 grid; "
          "raise CoresetOptions::base_cell_width",
          expected_coords[a]));
    }
    // C++20 guarantees arithmetic (floor) shift for signed operands, so
    // this matches floor division by 2^level exactly, including for
    // negative keys.
    key_scratch_[a] = static_cast<int64_t>(q) >> level_;
  }
  return Status::OK();
}

Status StreamingCoreset::Add(uint64_t index, const double* expected_coords,
                             double spread) {
  UKC_RETURN_IF_ERROR(ComputeKey(expected_coords));
  if (churn() && index / options_.churn_bucket < watermark_bucket_) {
    return Status::InvalidArgument(StrFormat(
        "StreamingCoreset::Add: index %llu lies below the expiry watermark "
        "(bucket %llu already retired)",
        static_cast<unsigned long long>(index),
        static_cast<unsigned long long>(watermark_bucket_)));
  }
  auto [it, inserted] = cells_.try_emplace(key_scratch_);
  CellState& cell = it->second;
  if (inserted || index < cell.min_index) {
    cell.min_index = index;
    cell.representative.assign(expected_coords, expected_coords + dim_);
  }
  cell.count += 1;
  cell.max_spread = std::max(cell.max_spread, spread);
  if (churn()) {
    BucketState& bucket = cell.buckets[index / options_.churn_bucket];
    if (bucket.count == 0 || index < bucket.min_index) {
      bucket.min_index = index;
      bucket.representative.assign(expected_coords, expected_coords + dim_);
    }
    bucket.count += 1;
    bucket.max_spread = std::max(bucket.max_spread, spread);
    if (options_.track_members) {
      // Sorted by (unique) index: the member list — and every refold
      // over it — is a pure function of the member set.
      Member member;
      member.index = index;
      member.spread = spread;
      member.coords.assign(expected_coords, expected_coords + dim_);
      auto pos = std::lower_bound(
          bucket.members.begin(), bucket.members.end(), index,
          [](const Member& m, uint64_t i) { return m.index < i; });
      bucket.members.insert(pos, std::move(member));
    }
  }
  ++num_points_;
  ReduceToCapacity();
  return Status::OK();
}

void StreamingCoreset::MergeBucket(BucketState* into, BucketState from) {
  if (into->count == 0) {
    *into = std::move(from);
    return;
  }
  if (from.min_index < into->min_index) {
    into->min_index = from.min_index;
    into->representative = std::move(from.representative);
  }
  into->count += from.count;
  into->max_spread = std::max(into->max_spread, from.max_spread);
  if (!from.members.empty()) {
    std::vector<Member> merged;
    merged.reserve(into->members.size() + from.members.size());
    std::merge(std::make_move_iterator(into->members.begin()),
               std::make_move_iterator(into->members.end()),
               std::make_move_iterator(from.members.begin()),
               std::make_move_iterator(from.members.end()),
               std::back_inserter(merged),
               [](const Member& a, const Member& b) { return a.index < b.index; });
    into->members = std::move(merged);
  }
}

void StreamingCoreset::RefoldBucket(BucketState* bucket) {
  UKC_DCHECK(!bucket->members.empty());
  // Members are sorted by index, so the front member owns the
  // representative; the folds over the rest are exact and commutative.
  bucket->min_index = bucket->members.front().index;
  bucket->representative = bucket->members.front().coords;
  bucket->count = bucket->members.size();
  bucket->max_spread = 0.0;
  for (const Member& member : bucket->members) {
    bucket->max_spread = std::max(bucket->max_spread, member.spread);
  }
}

void StreamingCoreset::RefoldCell(CellState* cell) {
  UKC_DCHECK(!cell->buckets.empty());
  cell->count = 0;
  cell->max_spread = 0.0;
  bool first = true;
  for (const auto& [b, bucket] : cell->buckets) {
    if (first || bucket.min_index < cell->min_index) {
      cell->min_index = bucket.min_index;
      cell->representative = bucket.representative;
    }
    first = false;
    cell->count += bucket.count;
    cell->max_spread = std::max(cell->max_spread, bucket.max_spread);
  }
}

Status StreamingCoreset::Remove(uint64_t index, const double* expected_coords,
                                double spread) {
  if (!options_.track_members) {
    return Status::FailedPrecondition(
        "StreamingCoreset::Remove: requires churn mode with track_members "
        "(the min/max/representative folds are not invertible without "
        "member records)");
  }
  UKC_RETURN_IF_ERROR(ComputeKey(expected_coords));
  auto it = cells_.find(key_scratch_);
  if (it == cells_.end()) {
    return Status::NotFound(
        "StreamingCoreset::Remove: no cell holds such a point");
  }
  CellState& cell = it->second;
  auto bucket_it = cell.buckets.find(index / options_.churn_bucket);
  if (bucket_it == cell.buckets.end()) {
    return Status::NotFound(
        "StreamingCoreset::Remove: no bucket holds such a point");
  }
  BucketState& bucket = bucket_it->second;
  auto member_it = std::lower_bound(
      bucket.members.begin(), bucket.members.end(), index,
      [](const Member& m, uint64_t i) { return m.index < i; });
  if (member_it == bucket.members.end() || member_it->index != index) {
    return Status::NotFound(StrFormat(
        "StreamingCoreset::Remove: index %llu is not a member",
        static_cast<unsigned long long>(index)));
  }
  // The caller replays the point it believes it inserted; a mismatch
  // means it replayed the wrong one — removing the stored member
  // anyway would corrupt the aggregates silently.
  if (member_it->spread != spread ||
      std::memcmp(member_it->coords.data(), expected_coords,
                  dim_ * sizeof(double)) != 0) {
    return Status::InvalidArgument(StrFormat(
        "StreamingCoreset::Remove: stored member %llu disagrees with the "
        "replayed coordinates/spread",
        static_cast<unsigned long long>(index)));
  }
  bucket.members.erase(member_it);
  if (bucket.members.empty()) {
    cell.buckets.erase(bucket_it);
  } else {
    RefoldBucket(&bucket);
  }
  if (cell.buckets.empty()) {
    cells_.erase(it);
  } else {
    RefoldCell(&cell);
  }
  --num_points_;
  return Status::OK();
}

Result<uint64_t> StreamingCoreset::ExpireBefore(uint64_t min_live_index) {
  if (!churn()) {
    return Status::FailedPrecondition(
        "StreamingCoreset::ExpireBefore: requires churn mode "
        "(CoresetOptions::churn_bucket > 0)");
  }
  const uint64_t watermark = min_live_index / options_.churn_bucket;
  // Monotone + idempotent: the state is a pure function of the largest
  // watermark ever applied, so any call schedule reaching the same
  // final watermark — per point, per batch, or once at the end —
  // leaves bitwise-identical cells.
  if (watermark <= watermark_bucket_) return uint64_t{0};
  uint64_t expired = 0;
  for (auto it = cells_.begin(); it != cells_.end();) {
    CellState& cell = it->second;
    bool changed = false;
    while (!cell.buckets.empty() && cell.buckets.begin()->first < watermark) {
      expired += cell.buckets.begin()->second.count;
      cell.buckets.erase(cell.buckets.begin());
      changed = true;
    }
    if (cell.buckets.empty()) {
      it = cells_.erase(it);
      continue;
    }
    if (changed) RefoldCell(&cell);
    ++it;
  }
  UKC_CHECK(expired <= num_points_)
      << "StreamingCoreset::ExpireBefore: retired more points than live";
  num_points_ -= expired;
  watermark_bucket_ = watermark;
  return expired;
}

Status StreamingCoreset::CoarsenTo(int level) {
  if (level < level_ || level > kMaxLevel) {
    return Status::InvalidArgument(StrFormat(
        "StreamingCoreset::CoarsenTo: level %d outside [%d, %d]", level,
        level_, kMaxLevel));
  }
  if (level > level_) CoarsenToLevel(level);
  return Status::OK();
}

void StreamingCoreset::Absorb(CellMap* cells, Key key, CellState state) {
  auto [it, inserted] = cells->try_emplace(std::move(key));
  CellState& cell = it->second;
  if (inserted) {
    cell = std::move(state);
    return;
  }
  // All folds are commutative and exact, so the merged cell does not
  // depend on the order its parts arrive in.
  if (state.min_index < cell.min_index) {
    cell.min_index = state.min_index;
    cell.representative = std::move(state.representative);
  }
  cell.count += state.count;
  cell.max_spread = std::max(cell.max_spread, state.max_spread);
  for (auto& [b, bucket] : state.buckets) {
    MergeBucket(&cell.buckets[b], std::move(bucket));
  }
}

void StreamingCoreset::CoarsenToLevel(int level) {
  UKC_DCHECK(level > level_);
  const int shift = level - level_;
  CellMap coarser;
  coarser.reserve(cells_.size());
  for (auto& [key, state] : cells_) {
    Key shifted(dim_);
    for (size_t a = 0; a < dim_; ++a) shifted[a] = key[a] >> shift;
    Absorb(&coarser, std::move(shifted), std::move(state));
  }
  cells_ = std::move(coarser);
  level_ = level;
}

void StreamingCoreset::ReduceToCapacity() {
  while (cells_.size() > options_.max_cells && level_ < kMaxLevel) {
    CoarsenToLevel(level_ + 1);
  }
}

Status StreamingCoreset::MergeFrom(const StreamingCoreset& other) {
  if (other.dim_ != dim_ || other.norm_ != norm_ ||
      other.options_.base_cell_width != options_.base_cell_width ||
      other.options_.max_cells != options_.max_cells ||
      other.options_.churn_bucket != options_.churn_bucket ||
      other.options_.track_members != options_.track_members) {
    return Status::InvalidArgument(
        "StreamingCoreset::MergeFrom: incompatible coreset configuration");
  }
  if (other.level_ > level_) CoarsenToLevel(other.level_);
  const int shift = level_ - other.level_;
  for (const auto& [key, state] : other.cells_) {
    Key shifted(dim_);
    for (size_t a = 0; a < dim_; ++a) shifted[a] = key[a] >> shift;
    Absorb(&cells_, std::move(shifted), state);
  }
  num_points_ += other.num_points_;
  // Shard pipelines expire only after the final merge, so shards
  // normally carry watermark 0; the max is still the only fold that
  // keeps the merged state monotone when they do not.
  watermark_bucket_ = std::max(watermark_bucket_, other.watermark_bucket_);
  ReduceToCapacity();
  return Status::OK();
}

std::vector<StreamingCoreset::OrderedCell> StreamingCoreset::OrderedCells()
    const {
  std::vector<OrderedCell> ordered;
  ordered.reserve(cells_.size());
  for (const auto& entry : cells_) {
    ordered.push_back({entry.second.min_index, &entry});
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const OrderedCell& a, const OrderedCell& b) {
              return a.min_index < b.min_index;
            });
  return ordered;
}

std::vector<StreamingCoreset::Cell> StreamingCoreset::ExtractCells() const {
  std::vector<Cell> cells;
  cells.reserve(cells_.size());
  for (const OrderedCell& ordered : OrderedCells()) {
    const CellState& state = ordered.entry->second;
    Cell cell;
    cell.min_index = state.min_index;
    cell.count = state.count;
    cell.max_spread = state.max_spread;
    cell.representative = state.representative;
    cells.push_back(std::move(cell));
  }
  return cells;
}

void StreamingCoreset::ExtractRepresentatives(std::vector<double>* out) const {
  out->resize(cells_.size() * dim_);
  double* next = out->data();
  for (const OrderedCell& ordered : OrderedCells()) {
    const std::vector<double>& rep = ordered.entry->second.representative;
    next = std::copy(rep.begin(), rep.end(), next);
  }
}

void StreamingCoreset::SerializeTo(std::string* out) const {
  AppendValue(out, kSerializeVersion);
  AppendValue(out, static_cast<uint64_t>(dim_));
  AppendValue(out, static_cast<uint8_t>(norm_));
  AppendValue(out, static_cast<uint64_t>(options_.max_cells));
  AppendValue(out, options_.base_cell_width);
  AppendValue(out, options_.churn_bucket);
  AppendValue(out, static_cast<uint8_t>(options_.track_members ? 1 : 0));
  AppendValue(out, watermark_bucket_);
  AppendValue(out, static_cast<int32_t>(level_));
  AppendValue(out, num_points_);
  AppendValue(out, static_cast<uint64_t>(cells_.size()));
  // min_index order, same as ExtractCells: the bytes are a pure
  // function of the cell set, never of the table's iteration order.
  for (const auto& [min_index, entry] : OrderedCells()) {
    AppendRaw(out, entry->first.data(), dim_ * sizeof(int64_t));
    AppendValue(out, entry->second.min_index);
    AppendValue(out, entry->second.count);
    AppendValue(out, entry->second.max_spread);
    AppendRaw(out, entry->second.representative.data(), dim_ * sizeof(double));
    if (!churn()) continue;
    // Buckets serialize in id order (std::map iteration) — again a
    // pure function of the state, not of any insertion history.
    AppendValue(out, static_cast<uint64_t>(entry->second.buckets.size()));
    for (const auto& [b, bucket] : entry->second.buckets) {
      AppendValue(out, b);
      AppendValue(out, bucket.min_index);
      AppendValue(out, bucket.count);
      AppendValue(out, bucket.max_spread);
      AppendRaw(out, bucket.representative.data(), dim_ * sizeof(double));
      if (!options_.track_members) continue;
      AppendValue(out, static_cast<uint64_t>(bucket.members.size()));
      for (const Member& member : bucket.members) {
        AppendValue(out, member.index);
        AppendValue(out, member.spread);
        AppendRaw(out, member.coords.data(), dim_ * sizeof(double));
      }
    }
  }
}

Result<StreamingCoreset> StreamingCoreset::Deserialize(std::string_view bytes) {
  ByteCursor cursor{bytes.data(), bytes.data() + bytes.size()};
  const auto corrupt = [](const char* what) {
    return Status::InvalidArgument(
        StrFormat("StreamingCoreset::Deserialize: %s", what));
  };
  const auto truncated = [&corrupt] { return corrupt("truncated image"); };
  uint32_t version = 0;
  if (!cursor.ReadValue(&version)) return truncated();
  if (version != kSerializeVersion) {
    return Status::InvalidArgument(
        StrFormat("StreamingCoreset::Deserialize: unknown version %u",
                  static_cast<unsigned>(version)));
  }
  uint64_t dim = 0;
  uint8_t norm_raw = 0;
  uint64_t max_cells = 0;
  double base_cell_width = 0.0;
  uint64_t churn_bucket = 0;
  uint8_t track_members_raw = 0;
  uint64_t watermark_bucket = 0;
  int32_t level = 0;
  uint64_t num_points = 0;
  uint64_t num_cells = 0;
  if (!cursor.ReadValue(&dim) || !cursor.ReadValue(&norm_raw) ||
      !cursor.ReadValue(&max_cells) || !cursor.ReadValue(&base_cell_width) ||
      !cursor.ReadValue(&churn_bucket) ||
      !cursor.ReadValue(&track_members_raw) ||
      !cursor.ReadValue(&watermark_bucket) || !cursor.ReadValue(&level) ||
      !cursor.ReadValue(&num_points) || !cursor.ReadValue(&num_cells)) {
    return truncated();
  }
  if (dim == 0 || dim > (1u << 20) || max_cells == 0 ||
      !(base_cell_width > 0.0) || !std::isfinite(base_cell_width) ||
      level < 0 || level > kMaxLevel || num_cells > num_points ||
      (num_cells > max_cells && level < kMaxLevel)) {
    return corrupt("out-of-range header field");
  }
  if (norm_raw > static_cast<uint8_t>(metric::Norm::kLInf)) {
    return corrupt("unknown norm");
  }
  if (track_members_raw > 1 ||
      (track_members_raw == 1 && churn_bucket == 0) ||
      (churn_bucket == 0 && watermark_bucket != 0)) {
    return corrupt("inconsistent churn configuration");
  }
  // Counts are bounded by the bytes left before anything is sized by
  // them: a cell record is at least a key, three scalars and a
  // representative.
  const uint64_t row_bytes = dim * sizeof(double);
  const auto remaining = [&cursor] {
    return static_cast<uint64_t>(cursor.end - cursor.p);
  };
  if (num_cells > remaining() / (2 * row_bytes + 24)) return truncated();
  CoresetOptions options;
  options.max_cells = static_cast<size_t>(max_cells);
  options.base_cell_width = base_cell_width;
  options.churn_bucket = churn_bucket;
  options.track_members = track_members_raw == 1;
  StreamingCoreset coreset(static_cast<size_t>(dim),
                           static_cast<metric::Norm>(norm_raw), options);
  coreset.level_ = static_cast<int>(level);
  coreset.num_points_ = num_points;
  coreset.watermark_bucket_ = watermark_bucket;
  coreset.cells_.reserve(num_cells);
  // Every stored point must land in its cell at the stored level under
  // the exact key an Add computes, which also refuses non-finite and
  // off-grid coordinates; every spread is a finite distance.
  const auto in_cell = [&coreset](const Key& key,
                                  const std::vector<double>& coords) {
    return coreset.ComputeKey(coords.data()).ok() &&
           coreset.key_scratch_ == key;
  };
  const auto valid_spread = [](double spread) {
    return spread >= 0.0 && std::isfinite(spread);
  };
  uint64_t total_count = 0;
  uint64_t prev_min_index = 0;
  for (uint64_t c = 0; c < num_cells; ++c) {
    Key key(dim);
    CellState state;
    state.representative.resize(dim);
    if (!cursor.Read(key.data(), dim * sizeof(int64_t)) ||
        !cursor.ReadValue(&state.min_index) || !cursor.ReadValue(&state.count) ||
        !cursor.ReadValue(&state.max_spread) ||
        !cursor.Read(state.representative.data(), row_bytes)) {
      return truncated();
    }
    if (state.count == 0) return corrupt("empty cell");
    if (!valid_spread(state.max_spread) ||
        !in_cell(key, state.representative)) {
      return corrupt("bad cell record");
    }
    // SerializeTo writes cells in strictly increasing min_index order.
    if (c > 0 && state.min_index <= prev_min_index) {
      return corrupt("cells out of min_index order");
    }
    prev_min_index = state.min_index;
    if (churn_bucket > 0) {
      uint64_t num_buckets = 0;
      if (!cursor.ReadValue(&num_buckets)) return truncated();
      if (num_buckets == 0 || num_buckets > state.count) {
        return corrupt("bad bucket count");
      }
      uint64_t bucket_total = 0;
      uint64_t prev_bucket_id = 0;
      bool first_bucket = true;
      for (uint64_t bi = 0; bi < num_buckets; ++bi) {
        uint64_t bucket_id = 0;
        BucketState bucket;
        bucket.representative.resize(dim);
        if (!cursor.ReadValue(&bucket_id) ||
            !cursor.ReadValue(&bucket.min_index) ||
            !cursor.ReadValue(&bucket.count) ||
            !cursor.ReadValue(&bucket.max_spread) ||
            !cursor.Read(bucket.representative.data(), row_bytes)) {
          return truncated();
        }
        // Buckets were written in strictly increasing id order, never
        // below the watermark (Add rejects such indices), and hold only
        // indices of their own id.
        if (bucket.count == 0 || bucket_id < watermark_bucket ||
            (!first_bucket && bucket_id <= prev_bucket_id) ||
            bucket.min_index / churn_bucket != bucket_id ||
            !valid_spread(bucket.max_spread) ||
            !in_cell(key, bucket.representative)) {
          return corrupt("bad bucket record");
        }
        first_bucket = false;
        prev_bucket_id = bucket_id;
        bucket_total += bucket.count;
        if (track_members_raw == 1) {
          uint64_t num_members = 0;
          if (!cursor.ReadValue(&num_members)) return truncated();
          if (num_members != bucket.count) {
            return corrupt("member/count mismatch");
          }
          if (num_members > remaining() / (row_bytes + 16)) return truncated();
          bucket.members.resize(num_members);
          uint64_t prev_index = 0;
          for (uint64_t mi = 0; mi < num_members; ++mi) {
            Member& member = bucket.members[mi];
            member.coords.resize(dim);
            if (!cursor.ReadValue(&member.index) ||
                !cursor.ReadValue(&member.spread) ||
                !cursor.Read(member.coords.data(), row_bytes)) {
              return truncated();
            }
            if (mi > 0 && member.index <= prev_index) {
              return corrupt("members out of order");
            }
            if (member.index / churn_bucket != bucket_id ||
                !valid_spread(member.spread) || !in_cell(key, member.coords)) {
              return corrupt("bad member record");
            }
            prev_index = member.index;
          }
          // The bucket's aggregates are the fold of its members.
          const uint64_t min_index = bucket.min_index;
          const double max_spread = bucket.max_spread;
          const std::vector<double> representative = bucket.representative;
          RefoldBucket(&bucket);
          if (bucket.min_index != min_index ||
              bucket.max_spread != max_spread ||
              bucket.representative != representative) {
            return corrupt("bucket aggregates disagree with its members");
          }
        }
        state.buckets.emplace(bucket_id, std::move(bucket));
      }
      if (bucket_total != state.count) {
        return corrupt("bucket counts do not sum to the cell count");
      }
      // The cell's aggregates are the fold of its buckets.
      const uint64_t min_index = state.min_index;
      const double max_spread = state.max_spread;
      const std::vector<double> representative = state.representative;
      RefoldCell(&state);
      if (state.min_index != min_index || state.max_spread != max_spread ||
          state.representative != representative) {
        return corrupt("cell aggregates disagree with its buckets");
      }
    }
    total_count += state.count;
    auto [it, inserted] =
        coreset.cells_.try_emplace(std::move(key), std::move(state));
    if (!inserted) return corrupt("duplicate cell key");
  }
  if (total_count != num_points) {
    return Status::InvalidArgument(StrFormat(
        "StreamingCoreset::Deserialize: cell counts sum to %llu, header "
        "declares %llu points",
        static_cast<unsigned long long>(total_count),
        static_cast<unsigned long long>(num_points)));
  }
  if (cursor.p != cursor.end) return corrupt("trailing bytes");
  return coreset;
}

}  // namespace stream
}  // namespace ukc
